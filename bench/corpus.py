"""Seeded story generators for the three benchmark workloads.

Every generator takes a ``random.Random`` and returns a story JSON document
(a dict); ``corpus(workload, seed)`` turns a seed into the list of story JSON
texts that one run processes.  The program under test only ever sees that
text.  The same seed gives byte-identical texts on every machine: only
``random.Random`` (whose sequence Python keeps stable) and ``json.dumps`` with
sorted keys are involved.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("small-oracle", "paper-short", "paper-layout")

# Stories per corpus.  A run processes its corpus once per pass and repeats
# passes while its time lasts.  small-oracle is sized for about five passes in
# a run, which steadies its tail; the paper corpora take two passes, and
# keep the driver's seventy runs well inside its time limit.
CORPUS_SIZE = {"small-oracle": 500, "paper-short": 30, "paper-layout": 30}


def small_story(rng: random.Random) -> dict:
    """Tiny random story: 4-7 characters, 4-10 scenes, times in [0, 5).

    Why: each exact solve takes about 2 ms, so the fixed cost of every
    stage (validation, merge, barycenter sweeps, model build, LP set-up,
    recounts) dominates and the LP is only a third of the time.  Every
    optimum is small enough for ``brute_force_optimum`` to certify.
    The shape follows ``random_story_doc`` in the test suite.
    """
    n_chars = rng.randint(4, 7)
    n_scenes = rng.randint(4, 10)
    chars = [f"c{i}" for i in range(n_chars)]
    fixed: list[dict] = []
    for s in range(n_scenes):
        b = rng.randrange(5)
        e = b + rng.randint(1, 2)
        members = rng.sample(chars, rng.randint(2, min(4, n_chars)))
        taken = set()
        for other in fixed:
            if not (e < other["begin"] or other["end"] < b):
                taken |= set(other["members"])
        members = [m for m in members if m not in taken]
        if len(members) >= 2:
            fixed.append({"id": f"s{s}", "members": members, "begin": b, "end": e})
    used = sorted({m for sc in fixed for m in sc["members"]}, key=chars.index)
    return {"characters": used, "scenes": fixed}


def paper_story(rng: random.Random, n_layers: int, alive: int, persist: float = 0.5) -> dict:
    """Story shaped like the paper's movie and book data.

    One layer per time step (scenes are instants ``[k, k]``).  Characters
    belong to small communities (each newcomer starts a new one with
    probability 0.3) and meet within them; on one layer in eight two groups
    merge into a mixed scene.  With probability ``persist`` a layer keeps the
    previous layer's scenes.  Characters enter and leave so that ``alive``
    of them are on stage per layer; the first and last layer of each
    lifespan is a scene the character takes part in, so the lifespan is
    exactly the planned one.
    """
    chars: list[str] = []
    community: dict[str, int] = {}
    span: dict[str, tuple[int, int]] = {}
    on_stage: list[str] = []
    n_comm = 0
    for k in range(n_layers):
        on_stage = [c for c in on_stage if span[c][1] >= k]
        while len(on_stage) < alive or (k == 0 and len(on_stage) < 2):
            if n_comm == 0 or rng.random() < 0.3:
                n_comm += 1
            name = f"p{len(chars)}"
            chars.append(name)
            community[name] = rng.randrange(n_comm)
            # lifespans run from a quarter of the story to all of it
            length = rng.randint(max(2, n_layers // 4), n_layers)
            span[name] = (k, min(n_layers - 1, k + length - 1))
            on_stage.append(name)
    scenes: list[dict] = []
    blocks: list[list[str]] = []
    for k in range(n_layers):
        present = [c for c in chars if span[c][0] <= k <= span[c][1]]
        must = [c for c in present if k in span[c]]
        if blocks and rng.random() < persist:
            # the scenes go on: keep last layer's groups, newcomers join in
            blocks = [[c for c in b if c in present] for b in blocks]
            blocks = [b for b in blocks if b]
            placed = {c for b in blocks for c in b}
            for c in must:
                if c not in placed:
                    home = [b for b in blocks if community[b[0]] == community[c]]
                    (home[0].append(c) if home else blocks.append([c]))
        else:
            pool = list(present)
            rng.shuffle(pool)
            groups: dict[int, list[str]] = {}
            for c in pool:
                if c in must or rng.random() < 0.75:
                    groups.setdefault(community[c], []).append(c)
            blocks = []
            for members in groups.values():
                while members:
                    size = min(len(members), rng.randint(1, 4))
                    blocks.append(members[:size])
                    members = members[size:]
            if len(blocks) >= 2 and rng.random() < 0.125:
                a, b = rng.sample(range(len(blocks)), 2)
                blocks[a] = blocks[a] + blocks[b]
                del blocks[b]
        for i, members in enumerate(blocks):
            scenes.append({"id": f"s{k}_{i}", "members": sorted(members, key=chars.index),
                           "begin": k, "end": k})
    return {"characters": chars, "scenes": scenes}


def paper_short_story(rng: random.Random) -> dict:
    """Paper-shaped story cut to 14-24 layers with about 6 characters alive.

    Why: each story is solved to a proven optimum and the LP is nearly all
    of the time (with the bundled simplex, 96% in measurements at the seed
    commit), with odd-cycle and transitivity separation behind it.  This is
    where LP and separation changes show.
    """
    return paper_story(rng, rng.randint(14, 24), 6)


def paper_layout_story(rng: random.Random) -> dict:
    """Paper-length story: 50-140 layers, mostly 7 alive, one in four 16 wide.

    Why: no LP runs here.  The heuristic layout, the SVG and the
    ``storymin stats`` model chain are the end product, so transform,
    ordering and the heuristic show, while LP and separation changes must
    leave it unchanged.  The wide casts make ``build_model`` and
    ``identify_variables`` (cubic in layer width) the larger part.
    """
    alive = 16 if rng.random() < 0.25 else 7
    return paper_story(rng, rng.randint(50, 140), alive)


_GENERATORS = {
    "small-oracle": small_story,
    "paper-short": paper_short_story,
    "paper-layout": paper_layout_story,
}


def base_stories(workload: str) -> list[dict]:
    """The workload's fixed story structures, in reference order.

    They come from a fixed generator seed, not from the run seed: solve time
    on paper-shaped stories spans three orders of magnitude between stories
    of the same shape, so a corpus drawn afresh per run would make every
    timing depend on which stories were drawn rather than on the program.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"storymin-bench:{workload}")
    make = _GENERATORS[workload]
    return [make(rng) for _ in range(CORPUS_SIZE[workload])]


def _renamed(doc: dict, rng: random.Random) -> dict:
    """Same story under fresh character and scene names, orders kept.

    Node ids follow the order of the character list and tree nodes the order
    of the scene list, so keeping both orders keeps the instance, the search
    path and the heuristic layout identical up to labels.
    """
    names = rng.sample(range(36 ** 4, 36 ** 5), len(doc["characters"]))
    rename = {c: "x" + _base36(n) for c, n in zip(doc["characters"], names)}
    scenes = [{"id": f"s{rng.randrange(10 ** 6)}_{i}", "begin": sc["begin"], "end": sc["end"],
               "members": [rename[m] for m in sc["members"]]}
              for i, sc in enumerate(doc["scenes"])]
    return {"characters": [rename[c] for c in doc["characters"]], "scenes": scenes}


def _base36(n: int) -> str:
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    out = ""
    while n:
        n, d = divmod(n, 36)
        out = digits[d] + out
    return out


def corpus(workload: str, seed: int) -> list[tuple[int, str]]:
    """One run's stories as (reference index, story JSON text), in run order.

    The seed renames every character and scene and shuffles the order in
    which the stories are processed.
    """
    rng = random.Random(f"{workload}:{seed}")
    stories = [(i, json.dumps(_renamed(doc, rng), sort_keys=True))
               for i, doc in enumerate(base_stories(workload))]
    rng.shuffle(stories)
    return stories

"""SVG rendering of solved instances.

Characters run left to right as polylines, one column per layer.  Vertical
positions come from a compact slot assignment: walking a layer's permutation
top to bottom, a node sits 1 slot below its predecessor when both belong to
the same scene bundle (their lowest common ancestor is a scene node) and 2
slots below otherwise, so bundles read as tight blocks with a visible gap
around them.  Lines are straight by default, which makes drawn line
intersections correspond exactly to counted crossings; ``smooth`` switches to
cubic curves for nicer posters.  Output is byte-deterministic for a given
(instance, solution, options) triple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mlcm import LayerTree, MlcmInstance, Solution, count_crossings

__all__ = ["RenderOptions", "assign_slots", "render_svg", "PALETTE"]

PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
)
MARGIN = 48
STROKE_WIDTH = 2.5
FONT_SIZE = 11


@dataclass(frozen=True)
class RenderOptions:
    width: int = 100
    row_height: int = 24
    smooth: bool = False


def _bundle_ids(tree: LayerTree) -> list[int]:
    """Per leaf, an id that two leaves share iff their lowest common ancestor
    is a scene node, so iff they sit in one bundle.

    Every labelled internal node but a synthetic root is a scene node: below
    such a root two leaves share a bundle iff they descend from the same
    child of the root, and otherwise any two leaves do.
    """
    n = tree.n_leaves
    if not tree.internal_labels:
        return list(range(n))  # no scene: every leaf a bundle of its own
    if not tree.has_synthetic_root():
        return [0] * n  # the root is a scene: one bundle
    root, parent = tree.root, tree.parent
    # per leaf, its ancestor one level up at a time, until the root's child
    top = list(range(n))
    while True:
        up = [v if parent[v] == root else parent[v] for v in top]
        if up == top:
            return top
        top = up


def assign_slots(instance: MlcmInstance, solution: Solution) -> list[list[int]]:
    """Slot per node (indexed by node id) for every layer."""
    out: list[list[int]] = []
    for r, order in enumerate(solution.orders):
        bundle = _bundle_ids(instance.trees[r])
        slots = [0] * instance.layer_sizes[r]
        slot = 0
        for a, b in zip(order, order[1:]):
            slot += 1 if bundle[a] == bundle[b] else 2
            slots[b] = slot
        out.append(slots)
    return out


def _char_points(instance: MlcmInstance, solution: Solution,
                 slots: list[list[int]]) -> list[tuple[str, list[tuple[int, int]]]]:
    """(name, [(layer, slot), ...]) per drawn line, in first-appearance order."""
    if instance.labels is not None:
        names: list[str] = []
        pts: dict[str, list[tuple[int, int]]] = {}
        for r in range(instance.p):
            for node in solution.orders[r]:
                c = instance.labels[r][node]
                if c not in pts:
                    pts[c] = []
                    names.append(c)
                pts[c].append((r, slots[r][node]))
        return [(c, pts[c]) for c in names]
    # unlabeled instances: one two-point line per edge
    lines = []
    for r, gap_edges in enumerate(instance.edges):
        for u, v in gap_edges:
            lines.append((f"e{r + 1}.{u}.{v}", [(r, slots[r][u]), (r + 1, slots[r + 1][v])]))
    return lines


def render_svg(instance: MlcmInstance, solution: Solution,
               options: RenderOptions | None = None) -> str:
    opt = options or RenderOptions()
    slots = assign_slots(instance, solution)
    crossings = count_crossings(instance, solution)

    max_slot = max((s for layer in slots for s in layer), default=0)
    # every layer's x and every slot's y, as numbers and as drawn
    xs = [MARGIN + r * opt.width for r in range(instance.p)]
    ys = [MARGIN + s * opt.row_height for s in range(max_slot + 1)]
    x_text = [f"{v:.1f}" for v in xs]
    y_text = [f"{v:.1f}" for v in ys]
    width = 2 * MARGIN + max(instance.p - 1, 0) * opt.width
    height = 2 * MARGIN + max_slot * opt.row_height + 2 * FONT_SIZE

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    lines = _char_points(instance, solution, slots)
    for idx, (name, pts) in enumerate(lines):
        color = PALETTE[idx % len(PALETTE)]
        if opt.smooth and len(pts) > 1:
            d = [f"M {x_text[pts[0][0]]} {y_text[pts[0][1]]}"]
            for (r0, s0), (r1, s1) in zip(pts, pts[1:]):
                mid = (xs[r0] + xs[r1]) / 2.0
                d.append(f"C {mid:.1f} {y_text[s0]} {mid:.1f} {y_text[s1]} {x_text[r1]} {y_text[s1]}")
            parts.append(f'<path d="{" ".join(d)}" fill="none" stroke="{color}" '
                         f'stroke-width="{STROKE_WIDTH}"/>')
        else:
            points = " ".join([f"{x_text[r]},{y_text[s]}" for r, s in pts])
            parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                         f'stroke-width="{STROKE_WIDTH}"/>')
        lx, ly = xs[pts[0][0]], ys[pts[0][1]]
        safe = _escape(name)
        parts.append(f'<text x="{lx - 6:.1f}" y="{ly + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="{FONT_SIZE}" '
                     f'fill="{color}">{safe}</text>')

    parts.append(f'<text id="crossing-count" x="{MARGIN}" y="{height - FONT_SIZE}" '
                 f'font-family="sans-serif" font-size="{FONT_SIZE}" '
                 f'fill="#333333">crossings={crossings}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))

"""Multi-layer crossing minimization instances with per-layer tree constraints.

An instance has ``p`` layers of nodes, edges only between consecutive layers,
and a rooted tree per layer whose leaves are exactly that layer's nodes.  A
node ordering of a layer is *admissible* only if it is tree-consistent: the
leaves of every subtree must occupy a contiguous block.  For storyline
instances the internal nodes are scene gatherings, so tree consistency keeps
each scene's characters bundled.

Orientation convention (pinned for the whole package): earlier in a layer's
permutation = drawn higher.  ``orders[r][0]`` is the topmost node of layer r.

Node ids within a layer are dense ints ``0..n_r-1``; ids are per-layer (node 3
of layer 0 and node 3 of layer 1 are unrelated).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

from .validation import FormatError, ValidationReport

__all__ = [
    "LayerTree",
    "MlcmInstance",
    "Solution",
    "InstanceFormatError",
    "is_tree_consistent",
    "leaf_ranges",
    "count_crossings",
    "validate_instance",
    "parse_instance",
    "format_instance",
    "parse_solution",
    "format_solution",
]

ROOT_LABEL = "root"
# the characters of a node id in the text format
ID_CHARS = "A-Za-z0-9_."
_ID_RE = re.compile(f"[{ID_CHARS}]+\\Z")


class InstanceFormatError(FormatError):
    """Malformed instance or solution text."""


class _cached:
    """A value computed at its first read and kept in the instance's
    ``__dict__``: ``functools.cached_property`` without the lock it takes
    before Python 3.12, which cost as much as building a small tree's
    tables."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class LayerTree:
    """Rooted tree over one layer.

    Leaves are node ids ``0..n_leaves-1``; internal nodes get the ids
    ``n_leaves..n_nodes-1``.  ``parent[v]`` is -1 exactly for the root.
    ``internal_labels`` names internal nodes (scene ids; a synthetic root is
    labeled ``ROOT_LABEL``, see :meth:`has_synthetic_root`).
    """

    n_leaves: int
    parent: tuple[int, ...]
    internal_labels: tuple[str, ...] = ()

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @_cached
    def root(self) -> int:
        n_roots = self.parent.count(-1)
        if n_roots != 1:
            raise ValueError(f"tree must have exactly one root, found {n_roots}")
        return self.parent.index(-1)

    @_cached
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for v, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(v)
        return tuple(map(tuple, kids))

    @_cached
    def _topo_order(self) -> tuple[int, ...]:
        """Root first, children after parents (iterative DFS, children as
        stored).  The stack holds one iterator over each open node's
        children, so a node without children costs no push or pop."""
        children = self.children
        order = [self.root]
        stack = [iter(children[self.root])]
        while stack:
            for v in stack[-1]:
                order.append(v)
                if children[v]:
                    stack.append(iter(children[v]))
                    break
            else:
                stack.pop()
        return tuple(order)

    @_cached
    def leaf_sets(self) -> frozenset[int]:
        """The family of the internal nodes' leaf sets, each an int with bit
        x set for leaf x.

        A set, not a list per node: a chain of one-child nodes gives every
        node on it the same leaf set, and the family holds it once.  Trees
        over the same leaves with equal families admit the same orders.
        """
        return self.leaf_sets_renamed(range(self.n_leaves))

    def leaf_sets_renamed(self, rename) -> frozenset[int]:
        """``leaf_sets`` with every leaf x renamed ``rename[x]``, a
        permutation of the leaves: the image of the family under it."""
        n, parent = self.n_leaves, self.parent
        below = [1 << y for y in rename] + [0] * (self.n_nodes - n)
        for v in self._topo_order[:0:-1]:  # children before parents
            below[parent[v]] |= below[v]
        return frozenset(below[n:])

    def is_leaf(self, v: int) -> bool:
        return v < self.n_leaves

    def label_of(self, v: int) -> str | None:
        if self.is_leaf(v) or not self.internal_labels:
            return None
        return self.internal_labels[v - self.n_leaves]

    def has_synthetic_root(self) -> bool:
        """True iff the root is labelled ``ROOT_LABEL`` above other internal
        nodes: the one labelled internal node that is no scene.  A root so
        labelled with only leaves below it is a scene named ``root`` that
        gathers the whole layer, since every layer of a built instance has
        an active scene."""
        return self.n_nodes - self.n_leaves > 1 and self.label_of(self.root) == ROOT_LABEL

    def canonical_leaf_order(self) -> tuple[int, ...]:
        """Leaves in DFS order with children taken as stored (tree-consistent)."""
        n = self.n_leaves
        return tuple(v for v in self._topo_order if v < n)

    @staticmethod
    def from_nested(spec, n_leaves: int) -> "LayerTree":
        """Build from nested lists: leaf ids and ``(label, [children...])`` pairs.

        Example: ``("root", [("s1", [0, 1]), 2])`` for leaves {0,1,2}.
        """
        parents: dict[int, int] = {}
        labels: list[str] = []
        next_id = [n_leaves]

        def walk(node) -> int:
            if isinstance(node, int):
                return node
            label, kids = node
            my_id = next_id[0]
            next_id[0] += 1
            labels.append(str(label))
            for k in kids:
                parents[walk(k)] = my_id
            return my_id

        walk(spec)
        n_nodes = next_id[0]
        parent = [-1] * n_nodes
        for v, p in parents.items():
            parent[v] = p
        return LayerTree(n_leaves, tuple(parent), tuple(labels))


@dataclass(frozen=True)
class MlcmInstance:
    """A ``p``-layer instance: layers are implicit (sizes), edges per gap, tree per layer.

    ``edges[r]`` holds ``(u, v)`` pairs with ``u`` in layer r and ``v`` in
    layer r+1.  ``labels[r]``, when present, names layer r's nodes (character
    names for storyline instances) and is what the text format shows.
    """

    layer_sizes: tuple[int, ...]
    edges: tuple[tuple[tuple[int, int], ...], ...]
    trees: tuple[LayerTree, ...]
    labels: tuple[tuple[str, ...], ...] | None = None

    @property
    def p(self) -> int:
        return len(self.layer_sizes)

    @property
    def n_nodes(self) -> int:
        return sum(self.layer_sizes)

    @property
    def n_edges(self) -> int:
        return sum(len(e) for e in self.edges)

    def label(self, r: int, v: int) -> str:
        if self.labels is not None:
            return self.labels[r][v]
        return str(v)


@dataclass(frozen=True)
class Solution:
    """One permutation per layer, top to bottom."""

    orders: tuple[tuple[int, ...], ...]


def leaf_ranges(tree: LayerTree, order: tuple[int, ...] | list[int]) -> tuple[list[int], list[int]] | None:
    """First and last index in ``order`` of every node's leaves (``len(order)``
    and -1 for a node without leaves), or None if some node's leaves are not
    a contiguous block."""
    if sorted(order) != list(range(tree.n_leaves)):
        raise ValueError("order must be a permutation of the layer's leaves")
    n = len(order)
    first = [n] * tree.n_nodes
    last = [-1] * tree.n_nodes
    parent = tree.parent
    for k, v in enumerate(order):
        while v >= 0:
            if first[v] == n:
                first[v] = k
            elif last[v] != k - 1:  # a leaf of another node came between
                return None
            last[v] = k
            v = parent[v]
    return first, last


def is_tree_consistent(tree: LayerTree, order: tuple[int, ...] | list[int]) -> bool:
    """True iff every subtree's leaves form a contiguous block in ``order``."""
    return leaf_ranges(tree, order) is not None


def _inversions(values: list[int]) -> int:
    """Strict inversions (i<j with v[i] > v[j]), counted against a sorted prefix."""
    inv = 0
    seen: list[int] = []
    for k, v in enumerate(values):
        i = bisect_right(seen, v)
        inv += k - i  # earlier values strictly greater
        seen.insert(i, v)
    return inv


def _positions(order: tuple[int, ...] | list[int]) -> list[int]:
    """``pos[v]`` is the index of node v in ``order``, a permutation of the layer's nodes."""
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    return pos


def _gap_crossings(gap_edges, pos_u: list[int], pos_v: list[int]) -> int:
    """Crossings of one gap, given both layers' positions (see ``_positions``).

    The edges are sorted by one int key per edge, ``pos_u * n_v + pos_v``,
    which orders them as the pairs (pos_u, pos_v) do.
    """
    n_v = len(pos_v)
    keys = sorted([pos_u[u] * n_v + pos_v[v] for u, v in gap_edges])
    return _inversions([k % n_v for k in keys])


def count_crossings(instance: MlcmInstance, solution: Solution) -> int:
    """Number of edge pairs that cross, summed over consecutive-layer gaps.

    Two edges of the same gap cross iff their endpoints appear in opposite
    relative order on the two layers.  Edges sharing an endpoint never cross.
    Raises ValueError unless every order is a permutation of its layer's nodes.
    """
    if len(solution.orders) != instance.p:
        raise ValueError("solution layer count does not match instance")
    for r, order in enumerate(solution.orders):
        if sorted(order) != list(range(instance.layer_sizes[r])):
            raise ValueError(f"solution layer {r + 1} is not a permutation of the layer's nodes")
    pos = [_positions(order) for order in solution.orders]
    return sum(_gap_crossings(gap_edges, pos[r], pos[r + 1])
               for r, gap_edges in enumerate(instance.edges) if gap_edges)


def validate_instance(instance: MlcmInstance) -> ValidationReport:
    """Check structural invariants; empty report == well-formed instance."""
    report = ValidationReport()
    if len(instance.edges) != max(instance.p - 1, 0):
        report.add("bad-shape", f"expected {max(instance.p - 1, 0)} edge groups, got {len(instance.edges)}")
    if len(instance.trees) != instance.p:
        report.add("bad-shape", f"expected {instance.p} trees, got {len(instance.trees)}")
        return report
    labels = instance.labels
    if labels is not None and len(labels) != instance.p:
        report.add("bad-shape", "labels present but not one group per layer")
        labels = None  # no per-layer label test without one group per layer

    for r, tree in enumerate(instance.trees):
        n = instance.layer_sizes[r]
        loc = f"tree {r + 1}"
        if tree.n_leaves != n:
            report.add("tree-leaf-mismatch", f"layer has {n} nodes but tree has {tree.n_leaves} leaves", loc)
            continue
        parent, m = tree.parent, tree.n_nodes
        # the scans that name a fault run only once a fault is known
        if parent and not (min(parent) >= -1 and max(parent) < m):
            stray = next(v for v, p in enumerate(parent) if not -1 <= p < m)
            report.add("not-a-tree", f"node {stray} has parent {parent[stray]}, not in -1..{m - 1}", loc)
            continue
        n_roots = parent.count(-1)
        if n_roots != 1:
            report.add("not-a-tree", f"{n_roots} roots", loc)
            continue
        # every node has one parent, so the DFS from the root misses a node
        # iff that node's parent chain runs into a cycle
        if len(tree._topo_order) != m:
            v = min(set(range(m)).difference(tree._topo_order))
            report.add("not-a-tree", f"parent cycle through node {v}", loc)
            continue
        if m == n:
            report.add("no-internal-node", "tree has no internal node", loc)
            continue
        if n > 0 and tree.is_leaf(tree.root):
            report.add("leaf-root", "root must be internal", loc)
        if not all(tree.children[n:]):
            for v in range(n, m):
                if not tree.children[v]:
                    report.add("childless-internal", f"internal node {v} has no children", loc)
        if labels is not None and len(labels[r]) != n:
            report.add("label-mismatch", f"layer {r + 1} has {n} nodes but {len(labels[r])} labels", loc)

    for r, gap_edges in enumerate(instance.edges):
        if r + 1 >= instance.p:
            break
        nu, nv = instance.layer_sizes[r], instance.layer_sizes[r + 1]
        if gap_edges:
            us, vs = zip(*gap_edges)
            if (min(us) >= 0 and max(us) < nu and min(vs) >= 0 and max(vs) < nv
                    and len(set(gap_edges)) == len(gap_edges)):
                continue
        loc = f"edges {r + 1}"
        seen_e = set()
        for u, v in gap_edges:
            if not (0 <= u < nu and 0 <= v < nv):
                report.add("edge-out-of-range", f"edge {u}-{v} out of range", loc)
            if (u, v) in seen_e:
                report.add("parallel-edge", f"edge {u}-{v} repeated", loc)
            seen_e.add((u, v))
    return report


def _check_valid(instance: MlcmInstance) -> None:
    """Raise :class:`InstanceFormatError` from the instance's first violation."""
    report = validate_instance(instance)
    if not report.ok:
        v = report.violations[0]
        raise InstanceFormatError(v.code, v.message, v.location)


# ---------------------------------------------------------------------------
# text format
#
#   p=3
#   layer 1: a b c
#   tree 1: (root (s1 a b) c)
#   ...
#   edges 1: a-a, b-c
#
# Layers are 1-based in the format.  Ids must match [A-Za-z0-9_.]+ so that
# the "-" edge separator stays unambiguous.  Edge endpoints are resolved in
# the namespaces of layer r and layer r+1 respectively.
# ---------------------------------------------------------------------------


def _check_id(name: str, location: str) -> str:
    if not _ID_RE.match(name):
        raise InstanceFormatError("bad-id", f"id {name!r} must match [{ID_CHARS}]+", location)
    return name


def _check_numbered(kind: str, idx: int, last: int, seen: dict, no: int) -> None:
    """Refuse a ``<kind> <idx>:`` line (line ``no``) whose number is outside
    ``1..last`` or already in ``seen``."""
    if not 1 <= idx <= last:
        raise InstanceFormatError("bad-shape", f"{kind} {idx} out of range 1..{last}", f"line {no}")
    if idx in seen:
        raise InstanceFormatError("bad-shape", f"duplicate {kind} {idx}", f"line {no}")


def _parse_tree_text(text: str, names: list[str], location: str) -> LayerTree:
    """Parse a parenthesized tree like ``(root (s1 a b) c)`` over named leaves."""
    tokens = re.findall(r"\(|\)|[^\s()]+", text)
    if not tokens:
        raise InstanceFormatError("bad-tree", "empty tree", location)
    name_to_id = {nm: i for i, nm in enumerate(names)}
    n_leaves = len(names)
    parent: list[int] = [-1] * n_leaves
    labels: list[str] = []
    pos = 0

    def parse_node() -> int:
        nonlocal pos
        if pos >= len(tokens):
            raise InstanceFormatError("bad-tree", "unexpected end of tree", location)
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            if pos >= len(tokens) or tokens[pos] in "()":
                raise InstanceFormatError("bad-tree", "internal node needs a label", location)
            label = tokens[pos]
            pos += 1
            my_id = n_leaves + len(labels)
            labels.append(label)
            parent.append(-1)
            kids = 0
            while pos < len(tokens) and tokens[pos] != ")":
                child = parse_node()
                if parent[child] != -1:
                    raise InstanceFormatError("bad-tree", "node used twice", location)
                parent[child] = my_id
                kids += 1
            if pos >= len(tokens):
                raise InstanceFormatError("bad-tree", "missing ')'", location)
            pos += 1  # consume ')'
            if kids == 0:
                raise InstanceFormatError("bad-tree", f"internal node {label!r} has no children", location)
            return my_id
        if tok == ")":
            raise InstanceFormatError("bad-tree", "unexpected ')'", location)
        pos += 1
        if tok not in name_to_id:
            raise InstanceFormatError("bad-tree", f"unknown leaf {tok!r}", location)
        return name_to_id[tok]

    root = parse_node()
    if pos != len(tokens):
        raise InstanceFormatError("bad-tree", "trailing tokens after tree", location)
    if root < n_leaves:
        raise InstanceFormatError("bad-tree", "root must be an internal node", location)
    missing = [names[v] for v in range(n_leaves) if parent[v] == -1 and v != root]
    if missing:
        raise InstanceFormatError("bad-tree", f"leaves not attached: {missing}", location)
    return LayerTree(n_leaves, tuple(parent), tuple(labels))


def parse_instance(text: str) -> MlcmInstance:
    """Parse the instance text format (see module docstring of this section)."""
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InstanceFormatError("bad-shape", "empty instance text")
    no, first = lines[0]
    m = re.match(r"p\s*=\s*(\d+)\Z", first)
    if not m:
        raise InstanceFormatError("bad-shape", "first line must be 'p=<count>'", f"line {no}")
    p = int(m.group(1))

    layer_names: dict[int, list[str]] = {}
    tree_texts: dict[int, tuple[str, int]] = {}
    edge_texts: dict[int, tuple[str, int]] = {}
    by_kind = {"layer": layer_names, "tree": tree_texts, "edges": edge_texts}
    for no, ln in lines[1:]:
        m = re.match(r"(layer|tree|edges)\s+(\d+)\s*:\s*(.*)\Z", ln)
        if not m:
            raise InstanceFormatError("bad-shape", f"unrecognized line {ln!r}", f"line {no}")
        kind, idx_s, rest = m.groups()
        idx = int(idx_s)
        _check_numbered(kind, idx, p - 1 if kind == "edges" else p, by_kind[kind], no)
        if kind == "layer":
            names = rest.split()
            if len(set(names)) != len(names):
                raise InstanceFormatError("duplicate-node", f"layer {idx} repeats a node id", f"line {no}")
            for nm in names:
                _check_id(nm, f"line {no}")
            layer_names[idx] = names
        else:
            by_kind[kind][idx] = (rest, no)

    for r in range(1, p + 1):
        if r not in layer_names:
            raise InstanceFormatError("bad-shape", f"missing 'layer {r}:' line")
        if r not in tree_texts:
            raise InstanceFormatError("bad-shape", f"missing 'tree {r}:' line")

    trees = []
    for r in range(1, p + 1):
        ttext, no = tree_texts[r]
        trees.append(_parse_tree_text(ttext, layer_names[r], f"line {no}"))

    edges: list[tuple[tuple[int, int], ...]] = []
    for r in range(1, p):
        rest, no = edge_texts.get(r, ("", -1))
        loc = f"line {no}" if no > 0 else f"edges {r}"
        id_u = {nm: i for i, nm in enumerate(layer_names[r])}
        id_v = {nm: i for i, nm in enumerate(layer_names[r + 1])}
        gap: list[tuple[int, int]] = []
        rest = rest.strip()
        if rest:
            for part in rest.split(","):
                part = part.strip()
                if not part:
                    raise InstanceFormatError("bad-shape", "empty edge entry", loc)
                bits = part.split("-")
                if len(bits) != 2:
                    raise InstanceFormatError("bad-shape", f"edge {part!r} must be 'u-v'", loc)
                us, vs = bits[0].strip(), bits[1].strip()
                if us not in id_u:
                    raise InstanceFormatError("unknown-node", f"edge endpoint {us!r} not in layer {r}", loc)
                if vs not in id_v:
                    raise InstanceFormatError("unknown-node", f"edge endpoint {vs!r} not in layer {r + 1}", loc)
                e = (id_u[us], id_v[vs])
                if e in gap:
                    raise InstanceFormatError("parallel-edge", f"edge {part!r} repeated", loc)
                gap.append(e)
        edges.append(tuple(gap))

    instance = MlcmInstance(
        layer_sizes=tuple(len(layer_names[r]) for r in range(1, p + 1)),
        edges=tuple(edges),
        trees=tuple(trees),
        labels=tuple(tuple(layer_names[r]) for r in range(1, p + 1)),
    )
    _check_valid(instance)
    return instance


def _format_tree(tree: LayerTree, names: list[str]) -> str:
    def fmt(v: int) -> str:
        if tree.is_leaf(v):
            return names[v]
        label = tree.label_of(v) or f"n{v}"
        inner = " ".join(fmt(c) for c in tree.children[v])
        return f"({label} {inner})"

    return fmt(tree.root)


def format_instance(instance: MlcmInstance) -> str:
    """Instance text format; inverse of :func:`parse_instance`.  An invalid
    instance raises ``InstanceFormatError`` from its first violation."""
    _check_valid(instance)
    out = [f"p={instance.p}"]
    names_per_layer: list[list[str]] = []
    for r in range(instance.p):
        names = [instance.label(r, v) for v in range(instance.layer_sizes[r])]
        if len(set(names)) != len(names):
            raise ValueError(f"layer {r + 1} labels are not unique")
        for nm in names:
            _check_id(nm, f"layer {r + 1}")
        names_per_layer.append(names)
        out.append(f"layer {r + 1}: " + " ".join(names))
        out.append(f"tree {r + 1}: " + _format_tree(instance.trees[r], names))
    for r, gap_edges in enumerate(instance.edges):
        parts = [f"{names_per_layer[r][u]}-{names_per_layer[r + 1][v]}" for u, v in gap_edges]
        out.append(f"edges {r + 1}: " + ", ".join(parts))
    return "\n".join(out) + "\n"


def parse_solution(text: str, instance: MlcmInstance) -> Solution:
    """Parse the solution text format against an instance (names resolved per layer).

    The trailing ``crossings=<int>`` line is verified against a recount when
    present.
    """
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    orders: dict[int, tuple[int, ...]] = {}
    claimed: int | None = None
    for no, ln in lines:
        m = re.match(r"crossings\s*=\s*(\d+)\Z", ln)
        if m:
            claimed = int(m.group(1))
            continue
        m = re.match(r"layer\s+(\d+)\s*:\s*(.*)\Z", ln)
        if not m:
            raise InstanceFormatError("bad-shape", f"unrecognized line {ln!r}", f"line {no}")
        idx = int(m.group(1))
        _check_numbered("layer", idx, instance.p, orders, no)
        names = m.group(2).split()
        r = idx - 1
        lookup = {instance.label(r, v): v for v in range(instance.layer_sizes[r])}
        if sorted(names) != sorted(lookup):
            raise InstanceFormatError("bad-permutation", f"layer {idx} is not a permutation of the layer's nodes", f"line {no}")
        orders[idx] = tuple(lookup[nm] for nm in names)
    for r in range(1, instance.p + 1):
        if r not in orders:
            raise InstanceFormatError("bad-shape", f"missing 'layer {r}:' line")
    sol = Solution(tuple(orders[r] for r in range(1, instance.p + 1)))
    if claimed is not None:
        actual = count_crossings(instance, sol)
        if actual != claimed:
            raise InstanceFormatError("crossings-mismatch", f"file claims {claimed} crossings, recount gives {actual}")
    return sol


def format_solution(instance: MlcmInstance, solution: Solution) -> str:
    """Solution text format with the trailing crossings line."""
    out = []
    for r, order in enumerate(solution.orders):
        out.append(f"layer {r + 1}: " + " ".join(instance.label(r, v) for v in order))
    out.append(f"crossings={count_crossings(instance, solution)}")
    return "\n".join(out) + "\n"

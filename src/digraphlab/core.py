"""Digraph values, homomorphism witnesses, and their serialization.

Vertices are dense integers 0..n-1.  Constructions that produce structured
vertices (tuples, functions) flatten them to integers in lexicographic order
and keep the original objects in a label table for witness reporting.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from operator import index
from typing import Iterable, Optional, Sequence


#: Builders and the JSON loader refuse a digraph with more vertices than this.
DEFAULT_VERTEX_LIMIT = 200_000

#: A digraph on at most this many vertices takes its arc pairs from
#: ``_SHARED_PAIRS``, so an arc (u, v) is one object in all of them.  The
#: bound keeps the table small: the pairs of a large digraph (a tree dual of
#: 2,048 vertices has up to 59,049 arcs) would outlive the digraph there.
SHARED_PAIR_VERTICES = 256

#: Each arc pair (u, v) with u, v < SHARED_PAIR_VERTICES, keyed by itself,
#: added on first use: at most SHARED_PAIR_VERTICES ** 2 entries, and none
#: until a digraph is built, so a process that builds few pays for few.
_SHARED_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}


class _cached_property:
    """``functools.cached_property`` without its lock: the first read stores
    the value in the instance dict, where every later read finds it before
    this descriptor.  Python 3.10 and 3.11 take a per-descriptor ``RLock``
    on each first read; here two threads can at worst both compute the same
    value, which is pure, and keep either copy."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class ConstructionError(ValueError):
    """Malformed construction arguments (bad endpoints, non-tree input, ...)."""


class SizeLimitExceeded(RuntimeError):
    """A construction or search refused to run past a configured size limit."""

    def __init__(self, what: str, size: int, limit: int):
        super().__init__(f"{what}: size {size} exceeds limit {limit}")
        self.what = what
        self.size = size
        self.limit = limit


@dataclass(frozen=True, eq=False)
class Digraph:
    """Immutable digraph with a sorted, duplicate-free arc tuple.

    Equality and hashing use ``(n, arcs)`` only; ``name`` and ``labels`` are
    provenance metadata.  ``labels``, when present, maps each vertex id to the
    structured object (tuple, function table, ...) it was flattened from.
    Built by ``make_digraph`` or ``symmetrize``, a digraph on at most
    SHARED_PAIR_VERTICES vertices shares each arc pair object with every
    other such digraph that has the arc.

    The engines' per-digraph tables are cached on first read, in the
    instance dict.  Colouring and the K_c search read one neighbour-mask
    table, ``rank_masks``, over ``degree_order``; ``neighbour_masks``, in
    vertex space, is not cached, and ``degree_rank`` is cached only when MAC
    or the tree search reads it.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]
    name: Optional[str] = None
    labels: Optional[tuple] = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<Digraph{tag} n={self.n} arcs={len(self.arcs)}>"

    @_cached_property
    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arcs)

    @_cached_property
    def out_masks(self) -> tuple[int, ...]:
        """Bit v of ``out_masks[u]`` is arc (u, v), loops included."""
        masks = [0] * self.n
        for u, v in self.arcs:
            masks[u] |= 1 << v
        return tuple(masks)

    @_cached_property
    def in_masks(self) -> tuple[int, ...]:
        """Bit u of ``in_masks[v]`` is arc (u, v), loops included."""
        masks = [0] * self.n
        for u, v in self.arcs:
            masks[v] |= 1 << u
        return tuple(masks)

    @property
    def neighbour_masks(self) -> tuple[int, ...]:
        """Bit v of ``neighbour_masks[u]`` is an arc between u != v, either
        way.  Built on each read and not cached: ``degree_order`` reads it
        once, and colouring reads ``rank_masks``."""
        masks = [0] * self.n
        for u, v in self.arcs:
            if u != v:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        return tuple(masks)

    # The hom engine's per-digraph data, built on first use and shared by
    # every search the digraph takes part in.

    @_cached_property
    def loops(self) -> tuple[int, ...]:
        """The vertices that carry a loop, ascending."""
        return tuple(u for u, v in self.arcs if u == v)

    @_cached_property
    def loop_mask(self) -> int:
        """Bit x is set iff vertex x carries a loop."""
        return sum(1 << u for u in self.loops)

    @_cached_property
    def out_neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Heads of the arcs leaving each vertex, the vertex itself left out."""
        outs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            if u != v:
                outs[u].append(v)
        return tuple(map(tuple, outs))

    @_cached_property
    def in_neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Tails of the arcs entering each vertex, the vertex itself left out."""
        ins: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            if u != v:
                ins[v].append(u)
        return tuple(map(tuple, ins))

    @_cached_property
    def degree_order(self) -> tuple[int, ...]:
        """Vertices by descending ``neighbour_masks`` degree, lowest index
        first on ties."""
        masks = self.neighbour_masks
        return tuple(sorted(range(self.n), key=lambda x: (-masks[x].bit_count(), x)))

    @_cached_property
    def degree_rank(self) -> tuple[int, ...]:
        """``degree_rank[x]`` is the position of x in ``degree_order``;
        MAC and the tree search read it at every node."""
        rank = [0] * self.n
        for r, x in enumerate(self.degree_order):
            rank[x] = r
        return tuple(rank)

    @_cached_property
    def rank_masks(self) -> tuple[int, ...]:
        """``neighbour_masks`` in rank space: entry r holds the neighbours of
        ``degree_order[r]``, each vertex at the bit of its position in
        ``degree_order``.  DSATUR, the K_c search and ``greedy_clique`` read
        it.  The ranks are local, so no ``degree_rank`` is cached, and each
        row's int is built once, after the arc loop."""
        rank = [0] * self.n
        for r, x in enumerate(self.degree_order):
            rank[x] = r
        rows: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.arcs:
            if u != v:
                rows[rank[u]].add(rank[v])
                rows[rank[v]].add(rank[u])
        return tuple(sum(1 << r for r in row) for row in rows)

    @_cached_property
    def greedy_clique(self) -> tuple[int, ...]:
        """Best clique grown greedily from each of the first 24 vertices of
        ``degree_order``, in growth order, each step adding the candidate
        with most neighbours among the rest (lowest vertex index on ties).
        Only a strictly larger clique replaces the best, so two cut-offs
        keep it: the first start of degree below the best's size ends the
        loop, and a clique that cannot beat the best with its last vertex's
        candidates stops growing.  The cliques grow over ``rank_masks``, and
        the best is mapped back through ``degree_order``."""
        masks, order = self.rank_masks, self.degree_order
        best: list[int] = []
        for start in range(min(24, self.n)):
            common = masks[start]
            if common.bit_count() < len(best):
                break
            clique = [start]
            while common:
                most, rest = -1, common
                while rest:
                    r = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    d = (masks[r] & common).bit_count()
                    if d > most or d == most and order[r] < order[u]:
                        u, most = r, d
                clique.append(u)
                if len(clique) + most <= len(best):
                    break
                common &= masks[u]
            if len(clique) > len(best):
                best = clique
        return tuple(order[r] for r in best)

    @_cached_property
    def tree_order(self) -> Optional[tuple[tuple[int, ...], tuple[int, ...], tuple[bool, ...]]]:
        """For an oriented tree, its non-root vertices in BFS order from
        ``degree_order[0]`` as three parallel tuples: the children, their
        parents, and True where the arc runs parent -> child; None for any
        other digraph.

        |A| = |V| - 1 and connected: so the underlying multigraph is a
        tree, which rules out loops and 2-cycles too.
        """
        if self.n == 0 or len(self.arcs) != self.n - 1:
            return None
        succ, pred = self.out_neighbours, self.in_neighbours
        root = self.degree_order[0]
        seen = [False] * self.n
        seen[root] = True
        frontier = [root]
        parents: list[int] = []
        forward: list[bool] = []
        for p in frontier:
            for fwd, nbrs in ((True, succ[p]), (False, pred[p])):
                for c in nbrs:
                    if not seen[c]:
                        seen[c] = True
                        frontier.append(c)
                        parents.append(p)
                        forward.append(fwd)
        if len(parents) != self.n - 1:
            return None
        return tuple(frontier[1:]), tuple(parents), tuple(forward)

    @_cached_property
    def supports(self) -> dict[int, tuple[int, int]]:
        """Memo of the hom engine, filled as searches into this digraph run:
        vertex mask D -> (union of ``out_masks``, union of ``in_masks``)
        over the vertices of D."""
        return {}

    def has_arc(self, u: int, v: int) -> bool:
        """``(u, v) in self.arcs``, by binary search over the sorted arcs, so
        no ``arc_set`` is built; an endpoint that does not compare with
        ints (a str, None) answers False."""
        arcs = self.arcs
        try:
            i = bisect_left(arcs, (u, v))
        except TypeError:
            return False
        return i < len(arcs) and arcs[i] == (u, v)

    def has_loop(self) -> bool:
        return bool(self.loops)

    def rename(self, name: Optional[str]) -> "Digraph":
        return Digraph(self.n, self.arcs, name, self.labels)


class _Budget(Enum):
    """Outcome of a hom or colouring search that ran out of budget (no claim made)."""

    EXCEEDED = "BUDGET_EXCEEDED"

    def __repr__(self) -> str:
        return self.value

    __str__ = __repr__

    def __bool__(self) -> bool:
        return False


BUDGET_EXCEEDED = _Budget.EXCEEDED


def make_digraph(
    n: int,
    arcs: Iterable[tuple[int, int]],
    name: Optional[str] = None,
    labels: Optional[Sequence] = None,
) -> Digraph:
    """Build a digraph, deduplicating and sorting the arc list.

    On at most SHARED_PAIR_VERTICES vertices each arc is the shared pair
    object, so equal arcs of two such digraphs are one object.  Loops
    (u, u) are allowed.  An endpoint that is not an integer (by
    ``operator.index``: not 1.5, "0" or None) or lies outside 0..n-1 is a
    construction error.  More than DEFAULT_VERTEX_LIMIT vertices is
    SizeLimitExceeded, raised before ``arcs`` is read, so a builder that
    passes a generator builds no arc of a digraph it is refused.
    """
    if n < 0:
        raise ConstructionError(f"vertex count must be >= 0, got {n}")
    if n > DEFAULT_VERTEX_LIMIT:
        raise SizeLimitExceeded("make_digraph", n, DEFAULT_VERTEX_LIMIT)
    seen = set()
    for u, v in arcs:
        try:
            u, v = index(u), index(v)
        except TypeError:
            msg = f"arc ({u!r},{v!r}) has an endpoint that is not an integer"
            raise ConstructionError(msg) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ConstructionError(f"arc ({u},{v}) has endpoint outside 0..{n - 1}")
        seen.add((u, v))
    tab = tuple(labels) if labels is not None else None
    if tab is not None and len(tab) != n:
        raise ConstructionError(f"label table has {len(tab)} entries for {n} vertices")
    return Digraph(n, _arc_tuple(n, seen), name, tab)


def _arc_tuple(n: int, pairs: set[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The arc set ``pairs`` of a digraph on n vertices as a sorted tuple;
    on at most SHARED_PAIR_VERTICES vertices each arc is the shared pair
    object, added to ``_SHARED_PAIRS`` on first use."""
    arcs = sorted(pairs)
    if n > SHARED_PAIR_VERTICES:
        return tuple(arcs)
    return tuple(map(_SHARED_PAIRS.setdefault, arcs, arcs))


def symmetrize(g: Digraph) -> Digraph:
    """Close the arc set under reversal; the vertex set is unchanged."""
    closed = set(g.arcs)
    closed.update((v, u) for u, v in g.arcs)
    name = f"sym({g.name})" if g.name else None
    return Digraph(g.n, _arc_tuple(g.n, closed), name, g.labels)


def induced(g: Digraph, vertices: Iterable[int]) -> Digraph:
    """Subgraph induced by ``vertices``, relabelled in sorted order to 0..|S|-1."""
    sub = sorted(set(vertices))
    for v in sub:
        if not (0 <= v < g.n):
            raise ConstructionError(f"vertex {v} outside 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(sub)}
    arcs = [(index[u], index[v]) for u, v in g.arcs if u in index and v in index]
    labels = tuple(g.labels[v] for v in sub) if g.labels is not None else None
    return make_digraph(len(sub), arcs, name=None, labels=labels)


@dataclass(frozen=True)
class Hom:
    """A vertex map witnessing a homomorphism; map[u] is the image of u."""

    map: tuple[int, ...]
    source: Optional[str] = None
    target: Optional[str] = None

    def __len__(self) -> int:
        return len(self.map)

    def __getitem__(self, u: int) -> int:
        return self.map[u]


def validate_hom(h: Hom, g: Digraph, h_graph: Digraph) -> bool:
    """True iff every image is a vertex of ``h_graph`` and every arc of ``g``
    maps to an arc in ``h_graph.arc_set``; a map whose length is not |V(g)|
    is a ValueError.  The check reads the target's arc set, never the masks
    the hom engine searches with."""
    image = h.map
    if len(image) != g.n:
        raise ValueError(f"map length {len(image)} != |V| = {g.n}")
    n = h_graph.n
    for x in image:
        if not 0 <= x < n:
            return False
    target = h_graph.arc_set
    for u, v in g.arcs:
        if (image[u], image[v]) not in target:
            return False
    return True


# --- serialization -----------------------------------------------------------
#
# JSON digraph format: {"n": <int>, "arcs": [[u,v],...], "name": <string?>}
# with arcs sorted lexicographically.  The format is exact and versionless;
# labels are in-memory metadata and are not serialized.


def to_json_dict(g: Digraph) -> dict:
    d: dict = {"n": g.n, "arcs": [[u, v] for u, v in g.arcs]}
    if g.name is not None:
        d["name"] = g.name
    return d


def to_json(g: Digraph) -> str:
    return json.dumps(to_json_dict(g), separators=(",", ":"))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def from_json_dict(d: dict) -> Digraph:
    """Digraph from its JSON object; anything off the format is a
    ConstructionError, never coerced, and more than DEFAULT_VERTEX_LIMIT
    vertices is SizeLimitExceeded."""
    if not isinstance(d, dict) or "n" not in d or "arcs" not in d:
        raise ConstructionError("digraph JSON needs 'n' and 'arcs' keys")
    n, arcs = d["n"], d["arcs"]
    if not _is_int(n) or n < 0:
        raise ConstructionError(f"'n' must be an integer >= 0, got {n!r}")
    if n > DEFAULT_VERTEX_LIMIT:
        raise SizeLimitExceeded("from_json", n, DEFAULT_VERTEX_LIMIT)
    if not isinstance(arcs, list) or not all(
        isinstance(a, list) and len(a) == 2 and _is_int(a[0]) and _is_int(a[1]) for a in arcs
    ):
        raise ConstructionError("'arcs' must be a list of [u, v] integer pairs")
    name = d.get("name")
    if name is not None and not isinstance(name, str):
        raise ConstructionError(f"'name' must be a string, got {name!r}")
    return make_digraph(n, [(u, v) for u, v in arcs], name=name)


def from_json(text: str) -> Digraph:
    return from_json_dict(json.loads(text))


def hom_to_json_dict(h: Hom, target: Optional[Digraph] = None) -> dict:
    d: dict = {"map": list(h.map)}
    if h.source is not None:
        d["source"] = h.source
    if h.target is not None:
        d["target"] = h.target
    if target is not None and target.labels is not None:
        d["decoded"] = [_jsonable(target.labels[x]) for x in h.map]
    return d


def _jsonable(label):
    if isinstance(label, tuple):
        return [_jsonable(x) for x in label]
    return label


def to_dot(g: Digraph, collapse_symmetric: bool = False) -> str:
    """DOT export, labelled by the name with ``\\`` and ``"`` escaped.  With
    ``collapse_symmetric``, mutual arc pairs are drawn once as undirected
    edges."""
    lines = ["digraph {"]
    if g.name:
        label = g.name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  label="{label}";')
    for v in range(g.n):
        lines.append(f"  {v};")
    drawn = set()
    for u, v in g.arcs:
        if collapse_symmetric and u != v and (v, u) in g.arc_set:
            if (v, u) in drawn:
                continue
            lines.append(f"  {u} -> {v} [dir=none];")
        else:
            lines.append(f"  {u} -> {v};")
        drawn.add((u, v))
    lines.append("}")
    return "\n".join(lines) + "\n"

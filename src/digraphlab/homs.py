"""Homomorphism decision engine over plain Digraph sources and targets.

Maintained arc consistency (MAC): an AC-3 fixpoint over the source's arcs,
kept after every assignment of a backtracking search that tries the smallest
domain first.  Domains are int bitmasks over the target's vertices.  The
source's constraint index and branching order and the target's loop mask and
support unions are cached on the two Digraph objects, so the many searches
one digraph takes part in build them once.  Every domain change goes on a
trail that is undone on backtrack, and the search runs on an explicit stack
of frames, so no source is too large for the Python recursion limit.  For
targets whose obstruction sets are trees, arc consistency alone decides; the
search then never actually backtracks.  A categorical product is searched
as the digraph ``ProductSpec.materialize()`` builds.

A complete symmetric target K_c, the target of every colouring question,
has a search of its own with the same answers.  Into K_c a domain loses a
colour only when a neighbour is left with that colour alone, so the domains
are kept the other way round: c colour planes over the source's degree rank,
bit r of plane x set while the vertex of rank r may still take colour x,
with the domain sizes bit-sliced.  A vertex left with one colour takes it
from all its neighbours in one mask operation, and the new singletons this
makes cascade; that is exactly the AC-3 fixpoint into K_c.  Frames save the
planes, not a trail.  It keeps MAC's clamp, taken in rank space: the
ranks of the source's cached ``greedy_clique`` first, then ranks 0, 1, ...,
which is descending degree since ``degree_order[i]`` has rank i; the i-th
vertex starts with colours 0 .. i.  With MAC's branching order, ascending
colours and node count, every witness, every None and every BUDGET_EXCEEDED
are those MAC gives from the same clamp.
Once no two unassigned vertices are adjacent, the nodes MAC has left each
colour one of them with its lowest colour, so they are counted in one step.

An oriented-tree source needs no backtracking (Freuder, JACM 1982).
``tree_hom`` decides one by directional arc consistency in two passes over
the tree's cached BFS order, leaves to root and back, on the same domains
and support memo.  ``hom_exists`` gives an oriented-tree source, into any
target but K_c, a path of its own: the AC-3 fixpoint in those two passes,
then MAC's picks with no trail, frames or retries, since none of them ever
fires on a tree.  Its witnesses, Nones and budget boundaries stay MAC's, so
they do not depend on whether the source is a tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .core import BUDGET_EXCEEDED, Digraph, Hom, SizeLimitExceeded, _Budget, validate_hom

#: Default node-expansion limit for one search.
DEFAULT_BUDGET = 10_000_000

#: Maximum |V(H)|^|V(G)| that brute_force_hom will enumerate.
BRUTE_FORCE_LIMIT = 10_000_000


HomResult = Union[Hom, None, _Budget]


def arc_consistency(g: Digraph, h: Digraph) -> Optional[list[int]]:
    """Largest domain-filtering fixpoint of g over h, as one int mask over
    V(h) per vertex of g; None means provably no hom.

    A value x survives for u iff every arc at u can still be matched by some
    surviving value at the other endpoint.
    """
    doms = [(1 << h.n) - 1] * g.n
    if not _fixpoint(g, h, doms):
        return None
    return doms


def tree_hom(t: Digraph, h: Digraph) -> Optional[Hom]:
    """Decide a hom of the oriented tree t into h; a validated witness or None.

    Directional arc consistency along ``t.tree_order``, which is
    backtrack-free on a tree-shaped network (Freuder, JACM 1982).  Leaves to
    root, each parent's domain keeps only the values its child's domain
    supports along their arc; an empty domain proves there is no hom.  Root
    to leaves, the root takes its lowest value and each child the lowest
    value of its domain adjacent to its parent's, which the first pass
    guarantees exists.  Raises ValueError when t is not an oriented tree.
    """
    order = t.tree_order
    if order is None:
        raise ValueError("tree_hom needs an oriented tree")
    if h.n == 0:
        return None
    doms = _leaves_to_root(t, h)
    if doms is None:
        return None
    out_masks, in_masks = h.out_masks, h.in_masks
    root = t.degree_order[0]
    image = [0] * t.n
    image[root] = (doms[root] & -doms[root]).bit_length() - 1
    children, parents, forward = order
    for i in range(len(children)):
        c = children[i]
        allowed = doms[c] & (out_masks if forward[i] else in_masks)[image[parents[i]]]
        image[c] = (allowed & -allowed).bit_length() - 1
    witness = Hom(tuple(image), t.name, h.name)
    if not validate_hom(witness, t, h):
        raise AssertionError(f"tree_hom built an invalid witness {witness.map}")
    return witness


def _leaves_to_root(t: Digraph, h: Digraph) -> Optional[list[int]]:
    """Full domains of the oriented tree t over h, filtered leaves to root
    along ``t.tree_order``: each parent keeps only the values its child's
    domain supports along their arc.  None when a domain empties."""
    supports = h.supports
    doms = [(1 << h.n) - 1] * t.n
    children, parents, forward = t.tree_order
    for i in range(len(children) - 1, -1, -1):
        dc, p = doms[children[i]], parents[i]
        out_sup, in_sup = supports.get(dc) or _support(h, dc)
        doms[p] &= in_sup if forward[i] else out_sup
        if not doms[p]:
            return None
    return doms


def _tree_consistency(t: Digraph, h: Digraph) -> Optional[list[int]]:
    """``_fixpoint``'s domains for the oriented tree t, in two passes.

    After ``_leaves_to_root`` every value of a parent has a support in each
    child.  Root to leaves, each child then keeps only the values its
    parent's domain supports, and every support of a kept parent value is
    one of them.  So no domain empties in the second pass and every value
    left has its supports both ways, while every value removed had none:
    this is the largest arc-consistent fixpoint."""
    doms = _leaves_to_root(t, h)
    if doms is None:
        return None
    supports = h.supports
    children, parents, forward = t.tree_order
    for i in range(len(children)):
        dp = doms[parents[i]]
        out_sup, in_sup = supports.get(dp) or _support(h, dp)
        doms[children[i]] &= out_sup if forward[i] else in_sup
    return doms


def _tree_search(t: Digraph, h: Digraph, doms: list[int], budget: int):
    """``_mac_search`` for the oriented tree t from its arc-consistent doms.

    On an arc-consistent tree every value extends to a hom (Freuder, JACM
    1982), and the AC-3 fixpoint after an assignment is arc-consistent
    again, so MAC's first value never wipes out: it never backtracks and
    tries one value per pick.  So this keeps MAC's rules without its trail,
    frames or retries: pick the smallest domain of size >= 2 (lowest
    ``degree_rank`` on ties), take its lowest value, count one node, and
    propagate outward over a plain worklist, then re-bucket the worklist by
    domain size as ``_Buckets.sync`` does, inline, as this loop is the whole
    cost of a large tree.  Returns MAC's assignment, or BUDGET_EXCEEDED at
    MAC's node count.
    """
    succ, pred, supports = t.out_neighbours, t.in_neighbours, h.supports
    order, rank = t.degree_order, t.degree_rank
    size = [1] * t.n
    buckets = [0] * (h.n + 1)
    nonempty = nodes = 0
    changed: Sequence[int] = range(t.n)
    while True:
        for v in changed:
            old, new = size[v], doms[v].bit_count()
            size[v] = new
            bit = 1 << rank[v]
            if old > 1:
                buckets[old] ^= bit
                if not buckets[old]:
                    nonempty ^= 1 << old
            if new > 1:
                if not buckets[new]:
                    nonempty |= 1 << new
                buckets[new] |= bit
        if not nonempty:
            return tuple(d.bit_length() - 1 for d in doms)
        nodes += 1
        if nodes > budget:
            return BUDGET_EXCEEDED
        bucket = buckets[(nonempty & -nonempty).bit_length() - 1]
        u = order[(bucket & -bucket).bit_length() - 1]
        doms[u] &= -doms[u]
        changed = [u]
        for x in changed:
            dx = doms[x]
            out_sup, in_sup = supports.get(dx) or _support(h, dx)
            for v in succ[x]:
                dv = doms[v]
                kept = dv & out_sup
                if kept != dv:
                    doms[v] = kept
                    changed.append(v)
            for v in pred[x]:
                dv = doms[v]
                kept = dv & in_sup
                if kept != dv:
                    doms[v] = kept
                    changed.append(v)


def _fixpoint(g: Digraph, h: Digraph, doms: list[int]) -> bool:
    """Filter doms in place to the largest arc-consistent domains of g over
    h; False when one of them is empty.

    The arcs at u are g's ``out_neighbours[u]``/``in_neighbours[u]``, which
    leave u out; a source loop keeps only the target's looped vertices, and
    a domain that this filter empties is reported at once, before AC-3
    starts.
    """
    loop_mask = h.loop_mask
    for u in g.loops:
        doms[u] &= loop_mask
        if not doms[u]:
            return False
    return _propagate(g, h, doms, set(range(g.n)), []) and all(doms)


def _support(h: Digraph, d: int) -> tuple[int, int]:
    """The unions of h's out-masks and in-masks over the values of domain d:
    what d supports along an arc; memoised per domain in ``h.supports``."""
    out_masks, in_masks = h.out_masks, h.in_masks
    out_sup = in_sup = 0
    rest = d
    while rest:
        low = rest & -rest
        x = low.bit_length() - 1
        out_sup |= out_masks[x]
        in_sup |= in_masks[x]
        rest ^= low
    h.supports[d] = pair = (out_sup, in_sup)
    return pair


def _propagate(g: Digraph, h: Digraph, doms: list[int], queue: set[int], trail: list[int]) -> bool:
    """AC-3 of g over h from the vertices in ``queue``, whose domains just
    changed.

    Each domain a revision replaces is pushed on ``trail`` as a vertex,
    old-mask pair.  Returns False on a wipeout, with doms partly filtered.
    """
    succ, pred, supports = g.out_neighbours, g.in_neighbours, h.supports
    push = trail.append
    while queue:
        u = queue.pop()
        du = doms[u]
        out_sup, in_sup = supports.get(du) or _support(h, du)
        for v in succ[u]:
            dv = doms[v]
            kept = dv & out_sup
            if kept != dv:
                if not kept:
                    return False
                push(v)
                push(dv)
                doms[v] = kept
                queue.add(v)
        for v in pred[u]:
            dv = doms[v]
            kept = dv & in_sup
            if kept != dv:
                if not kept:
                    return False
                push(v)
                push(dv)
                doms[v] = kept
                queue.add(v)
    return True


class _Buckets:
    """Unassigned vertices (domain size >= 2) bucketed by domain size.

    Bucket s is a bitmask over each vertex's rank in the source's
    ``degree_order``, so the lowest set bit of the smallest non-empty bucket
    is the minimum of ``(len(dom), -deg, x)`` without a scan over the
    vertices.
    """

    __slots__ = ("doms", "order", "rank", "size", "buckets", "nonempty")

    def __init__(self, doms: list[int], g: Digraph, width: int):
        self.doms = doms
        self.order = g.degree_order
        self.rank = g.degree_rank
        self.size = [1] * len(doms)
        self.buckets = [0] * (width + 1)
        self.nonempty = 0
        self.sync(range(len(doms)))

    def sync(self, vertices) -> None:
        """Re-bucket the given vertices after their domains changed."""
        doms, size, rank, buckets = self.doms, self.size, self.rank, self.buckets
        for x in vertices:
            new, old = doms[x].bit_count(), size[x]
            if new == old:
                continue
            size[x] = new
            bit = 1 << rank[x]
            if old > 1:
                buckets[old] ^= bit
                if not buckets[old]:
                    self.nonempty ^= 1 << old
            if new > 1:
                if not buckets[new]:
                    self.nonempty |= 1 << new
                buckets[new] |= bit

    def pick(self) -> Optional[int]:
        """The next vertex to branch on, or None when all are assigned."""
        if not self.nonempty:
            return None
        s = (self.nonempty & -self.nonempty).bit_length() - 1
        m = self.buckets[s]
        return self.order[(m & -m).bit_length() - 1]


def _mac_search(g: Digraph, h: Digraph, doms: list[int], budget: int):
    """MAC backtracking from arc-consistent doms: smallest domain first (big
    source degree, then low index, breaks ties), values ascending.

    Returns the assignment, None when there is none, or BUDGET_EXCEEDED once
    more than ``budget`` values have been tried.  A frame is [vertex,
    values not yet tried, trail length before its assignment].
    """
    buckets = _Buckets(doms, g, h.n)
    trail: list[int] = []
    frames: list[list[int]] = []
    nodes = 0
    while True:
        u = buckets.pick()
        if u is None:
            return tuple(d.bit_length() - 1 for d in doms)
        frames.append([u, doms[u], len(trail)])
        while True:
            if not frames:
                return None
            frame = frames[-1]
            u, untried, mark = frame
            if len(trail) > mark:
                for i in range(len(trail) - 2, mark - 1, -2):
                    doms[trail[i]] = trail[i + 1]
                undone = trail[mark::2]
                del trail[mark:]
                buckets.sync(undone)
            if not untried:
                frames.pop()
                continue
            val = untried & -untried
            frame[1] = untried ^ val
            nodes += 1
            if nodes > budget:
                return BUDGET_EXCEEDED
            trail += (u, doms[u])
            doms[u] = val
            if _propagate(g, h, doms, {u}, trail):
                buckets.sync(trail[mark::2])
                break


def _is_complete_symmetric(h: Digraph) -> bool:
    # n(n-1) distinct loopless arcs can only be all ordered pairs
    return len(h.arcs) == h.n * (h.n - 1) and not h.loops


def _settle(planes: list[int], tail: list[int], wave: int, nb: Sequence[int]) -> bool:
    """Arc consistency into K_c from the singletons in ``wave``; False on a
    wipeout, with the state partly filtered.

    ``planes[x]`` holds the vertices (by degree rank) whose domain holds
    colour x, and ``tail[j]`` bit j of each domain size minus one.  The
    singletons of colour x take it from all their neighbours in one mask
    operation.  A vertex whose size then borrows past the top of ``tail``
    is empty; one whose size reaches one joins the wave.
    """
    while wave:
        for x in range(len(planes)):
            plane = planes[x]
            batch = wave & plane
            if not batch:
                continue
            wave ^= batch
            hit = 0
            while batch:
                r = batch.bit_length() - 1
                hit |= nb[r]
                batch ^= 1 << r
            hit &= plane
            if hit:
                planes[x] = plane ^ hit
                j = 0
                borrow = hit
                for t in tail:
                    tail[j] = t ^ borrow
                    borrow &= ~t
                    if not borrow:
                        break
                    j += 1
                else:
                    return False
                for t in tail:
                    hit &= ~t
                wave |= hit
            if not wave:
                break
    return True


def _complete_search(g: Digraph, c: int, budget: int):
    """Colour g with c colours, the hom into K_c that MAC would find.

    Domains are the colour planes of ``_settle`` over g's degree rank, and
    their sizes are bit-sliced in ``tail``.  For K_c, AC-3 removes a value
    only when a neighbour's domain is that single value, so ``_settle``
    reaches the same fixpoint.  The clamp is the same, taken in rank
    space: along the ranks of ``g.greedy_clique`` (by
    ``g.degree_order.index``) and then ranks 0, 1, ..., the i-th vertex
    starts with colours 0 .. min(i, c - 1), as a hom can always be
    relabelled so; an oversized clique wipes out before any value is tried.
    Only ``g.rank_masks`` is read per node.  Branching is
    ``_mac_search``'s: smallest domain of size >= 2, lowest rank on ties,
    colours ascending, one node per colour tried.  So the witness, the None
    and the budget cut-off are those of MAC.  A frame is [vertex bit, its
    colours, how many were tried, planes and tail at the pick with the
    vertex taken out].

    Once no two unassigned vertices are adjacent, each of MAC's remaining
    nodes gives one of them its lowest colour, propagates nothing and never
    fails; those nodes are counted and their colours set in one pass.  The
    test runs only after a colour that no neighbour held.
    """
    nb = g.rank_masks
    full = (1 << g.n) - 1
    tail = [full if (c - 1) >> j & 1 else 0 for j in range((c - 1).bit_length())]
    planes = [full] * c
    clique = map(g.degree_order.index, g.greedy_clique)
    clamped = list(dict.fromkeys([*clique, *range(min(c - 1, g.n))]))[: c - 1]
    for pos, r in enumerate(clamped):
        bit = 1 << r
        for j, t in enumerate(tail):
            tail[j] = t | bit if pos >> j & 1 else t & ~bit
        for x in range(pos + 1, c):
            planes[x] ^= bit
    singletons = full
    for t in tail:
        singletons &= ~t
    if not _settle(planes, tail, singletons, nb):
        return None
    frames: list[list] = []
    nodes = 0
    held = True  # whether a neighbour held the colour last assigned
    while True:
        pick = 0
        for t in tail:
            pick |= t
        if not held:
            rest = pick
            while rest and not nb[(rest & -rest).bit_length() - 1] & pick:
                rest &= rest - 1
            if pick and not rest:
                nodes += pick.bit_count()
                if nodes > budget:
                    return BUDGET_EXCEEDED
                rest = pick
                for x, plane in enumerate(planes):
                    planes[x] = plane & ~pick | plane & rest
                    rest &= ~plane
                pick = 0
        if not pick:
            colours = [0] * g.n
            order = g.degree_order
            for x, plane in enumerate(planes):
                while plane:
                    r = plane.bit_length() - 1
                    colours[order[r]] = x
                    plane ^= 1 << r
            return tuple(colours)
        for t in reversed(tail):
            if pick & ~t:
                pick &= ~t
        low = pick & -pick
        domain = []
        for x, plane in enumerate(planes):
            if plane & low:
                domain.append(x)
                planes[x] = plane ^ low
        frames.append([low, domain, 0, planes, [t & ~low for t in tail]])
        while True:
            if not frames:
                return None
            frame = frames[-1]
            low, domain, tried, cleared, cleared_tail = frame
            if tried == len(domain):
                frames.pop()
                continue
            frame[2] = tried + 1
            nodes += 1
            if nodes > budget:
                return BUDGET_EXCEEDED
            planes = cleared[:]
            planes[domain[tried]] |= low
            tail = cleared_tail[:]
            held = nb[low.bit_length() - 1] & planes[domain[tried]]
            if not held or _settle(planes, tail, low, nb):
                break


def hom_exists(g: Digraph, h: Digraph, budget: int = DEFAULT_BUDGET) -> HomResult:
    """Search for a hom of g into h.

    Returns a validated witness, None when the exhaustive search proves there
    is none, or BUDGET_EXCEEDED when more than ``budget`` values were tried
    (no claim).  Complete symmetric targets K_c go to ``_complete_search``;
    an oriented-tree source into any other target to ``_tree_consistency``
    and ``_tree_search``, which give MAC's answers and node counts; every
    other source to MAC.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if g.n == 0:
        return Hom((), g.name, h.name)
    if h.n == 0:
        return None
    if _is_complete_symmetric(h):
        if g.loops:
            return None
        assignment = _complete_search(g, h.n, budget)
    elif g.tree_order is not None:
        doms = _tree_consistency(g, h)
        if doms is None:
            return None
        assignment = _tree_search(g, h, doms, budget)
    else:
        doms = [(1 << h.n) - 1] * g.n
        if not _fixpoint(g, h, doms):
            return None
        assignment = _mac_search(g, h, doms, budget)
    if assignment is None or assignment is BUDGET_EXCEEDED:
        return assignment
    witness = Hom(assignment, g.name, h.name)
    if not validate_hom(witness, g, h):
        raise AssertionError(f"hom_exists built an invalid witness {witness.map}")
    return witness


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of a two-way hom check; equivalent is None when indeterminate."""

    equivalent: Optional[bool]
    forward: Optional[Hom] = None
    backward: Optional[Hom] = None


def hom_equivalent(g: Digraph, h: Digraph, budget: int = DEFAULT_BUDGET) -> EquivalenceResult:
    """Check for homomorphisms both ways between g and h."""
    fwd = hom_exists(g, h, budget)
    if fwd is BUDGET_EXCEEDED:
        return EquivalenceResult(None)
    if fwd is None:
        return EquivalenceResult(False)
    bwd = hom_exists(h, g, budget)
    if bwd is BUDGET_EXCEEDED:
        return EquivalenceResult(None, forward=fwd)
    if bwd is None:
        return EquivalenceResult(False, forward=fwd)
    return EquivalenceResult(True, forward=fwd, backward=bwd)


def brute_force_hom(g: Digraph, h: Digraph) -> Optional[Hom]:
    """Ground-truth oracle: the lexicographically least hom, or None.

    Enumerates the maps in lexicographic order, placing the source vertices in
    index order and trying target vertices in ascending order, and cuts off
    every prefix that already maps an arc between placed vertices onto a
    non-arc.  Vertex i is offered one int mask of targets: the AND of
    ``h.out_masks``/``h.in_masks`` of its placed neighbours' images, and of
    ``h.loop_mask`` for a loop at i, tried lowest bit first.  Nothing is
    propagated to unplaced vertices, so the oracle shares no reasoning with
    the search engine.  The enumeration keeps one mask of untried targets
    per depth (no recursion, whatever the source size).  Raises
    SizeLimitExceeded when the full space |V(H)|^|V(G)| exceeds
    BRUTE_FORCE_LIMIT.
    """
    space = h.n**g.n if g.n else 1
    if space > BRUTE_FORCE_LIMIT:
        raise SizeLimitExceeded("brute_force_hom", space, BRUTE_FORCE_LIMIT)
    n = g.n
    if n == 0:
        return Hom((), g.name, h.name)
    out_masks, in_masks = h.out_masks, h.in_masks
    # vertex i's constraints: (placed neighbour, the masks its image selects)
    placed: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
    base = [(1 << h.n) - 1] * n  # h.loop_mask at a looped vertex
    for u, v in g.arcs:
        if u < v:
            placed[v].append((u, out_masks))
        elif v < u:
            placed[u].append((v, in_masks))
        else:
            base[u] = h.loop_mask
    assignment = [0] * n
    untried = [0] * n
    untried[0] = base[0]
    depth = 0
    while depth >= 0:
        rest = untried[depth]
        if not rest:
            depth -= 1
            continue
        low = rest & -rest
        untried[depth] = rest ^ low
        assignment[depth] = low.bit_length() - 1
        depth += 1
        if depth == n:
            return Hom(tuple(assignment), g.name, h.name)
        allowed = base[depth]
        for u, masks in placed[depth]:
            allowed &= masks[assignment[u]]
        untried[depth] = allowed
    return None

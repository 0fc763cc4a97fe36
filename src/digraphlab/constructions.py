"""Graph families and digraph functors.

Builders are pure: each returns a fresh Digraph whose structured vertices
(tuples, incidence functions) are flattened to integers in lexicographic
order, with the originals kept in the label table.
"""

from __future__ import annotations

from itertools import product as iter_product

from .core import DEFAULT_VERTEX_LIMIT, ConstructionError, Digraph, SizeLimitExceeded, make_digraph, symmetrize


def tournament(n: int) -> Digraph:
    """Transitive tournament: arcs (i, j) for i < j."""
    if n < 0:
        raise ConstructionError("tournament order must be >= 0")
    if n > DEFAULT_VERTEX_LIMIT:
        raise SizeLimitExceeded("tournament", n, DEFAULT_VERTEX_LIMIT)
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return make_digraph(n, arcs, name=f"T_{n}")


def path(n: int) -> Digraph:
    """All-forward path with n arcs on vertices 0..n."""
    if n < 0:
        raise ConstructionError("path length must be >= 0")
    return make_digraph(n + 1, ((i, i + 1) for i in range(n)), name=f"P_{n}")


def complete(n: int) -> Digraph:
    """Complete symmetric loopless digraph."""
    if n < 0:
        raise ConstructionError("complete graph order must be >= 0")
    if n > DEFAULT_VERTEX_LIMIT:
        raise SizeLimitExceeded("complete", n, DEFAULT_VERTEX_LIMIT)
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return make_digraph(n, arcs, name=f"K_{n}")


def arc_graph(g: Digraph) -> Digraph:
    """Digraph on the arcs of g; composable pairs (u,v),(v,w) become arcs.

    Vertices with no composable partner are kept as isolated vertices.
    """
    if len(g.arcs) > DEFAULT_VERTEX_LIMIT:
        raise SizeLimitExceeded("arc_graph", len(g.arcs), DEFAULT_VERTEX_LIMIT)
    verts = list(g.arcs)
    index = {a: i for i, a in enumerate(verts)}
    arcs = []
    out_masks = g.out_masks
    for u, v in verts:
        rest = out_masks[v]
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            arcs.append((index[(u, v)], index[(v, w)]))
    name = f"arc_graph({g.name})" if g.name else "arc_graph"
    return make_digraph(len(verts), arcs, name=name, labels=verts)


def arc_graph_iter(g: Digraph, k: int) -> Digraph:
    """k-fold arc-graph iterate; k=0 returns g unchanged.

    The label table of the result holds the walk (u_0, ..., u_k) in g that
    each vertex stands for.
    """
    if k < 0:
        raise ConstructionError("iteration count must be >= 0")
    if k == 0:
        return g
    current = g
    chains: list[tuple[int, ...]] = [(v,) for v in range(g.n)]
    for _ in range(k):
        if len(current.arcs) > DEFAULT_VERTEX_LIMIT:
            raise SizeLimitExceeded("arc_graph_iter", len(current.arcs), DEFAULT_VERTEX_LIMIT)
        nxt = arc_graph(current)
        # a vertex of nxt is an arc (a, b) of current; its walk extends a's
        # walk by the last vertex of b's walk
        chains = [chains[a] + (chains[b][-1],) for a, b in nxt.labels]
        current = nxt
    name = f"arc_graph^{k}({g.name})" if g.name else f"arc_graph^{k}"
    return Digraph(current.n, current.arcs, name, tuple(chains))


def interleaved_adjoint(g: Digraph, k: int) -> Digraph:
    """Digraph on k-tuples of vertices of g.

    (u_1..u_k) -> (v_1..v_k) is an arc iff (u_i, v_i) is an arc for every i
    and (v_i, u_{i+1}) is an arc for i < k.
    """
    if k < 1:
        raise ConstructionError("tuple length k must be >= 1")
    size = g.n**k
    if size > DEFAULT_VERTEX_LIMIT:
        raise SizeLimitExceeded("interleaved_adjoint", size, DEFAULT_VERTEX_LIMIT)
    labels = list(iter_product(range(g.n), repeat=k))
    index = {t: i for i, t in enumerate(labels)}
    arcs = []
    for u in labels:
        for v in _interleave_successors(u, g, k):
            arcs.append((index[u], index[v]))
    name = f"iota_{k}({g.name})" if g.name else f"iota_{k}"
    return make_digraph(size, arcs, name=name, labels=labels)


def _interleave_successors(u, g: Digraph, k: int):
    """All tuples v that u interleaves into, built coordinate by coordinate."""
    outs, ins = g.out_masks, g.in_masks
    partial = [()]
    for i in range(k):
        candidates = outs[u[i]]
        if i + 1 < k:
            candidates &= ins[u[i + 1]]
        values = []
        while candidates:
            values.append((candidates & -candidates).bit_length() - 1)
            candidates &= candidates - 1
        partial = [pref + (vi,) for pref in partial for vi in values]
        if not partial:
            return
    yield from partial


def inverse_interleaved_adjoint(g: Digraph, k: int) -> Digraph:
    """Replace each vertex u by copies (u,1)..(u,k) and each arc (u,v) by the
    arcs (u_i, v_i) for all i plus (v_i, u_{i+1}) for i < k."""
    if k < 1:
        raise ConstructionError("copy count k must be >= 1")
    if g.n * k > DEFAULT_VERTEX_LIMIT:
        raise SizeLimitExceeded("inverse_interleaved_adjoint", g.n * k, DEFAULT_VERTEX_LIMIT)
    labels = [(u, i) for u in range(g.n) for i in range(1, k + 1)]

    def vid(u, i):
        return u * k + (i - 1)

    arcs = []
    for u, v in g.arcs:
        for i in range(1, k + 1):
            arcs.append((vid(u, i), vid(v, i)))
        for i in range(1, k):
            arcs.append((vid(v, i), vid(u, i + 1)))
    name = f"iota*_{k}({g.name})" if g.name else f"iota*_{k}"
    return make_digraph(g.n * k, arcs, name=name, labels=labels)


def is_oriented_tree(g: Digraph) -> bool:
    """Connected, |A| = |V|-1, and no loops or 2-cycles (underlying graph is
    a tree); the BFS order ``g.tree_order`` exists exactly then."""
    return g.tree_order is not None


def tree_dual(t: Digraph) -> Digraph:
    """Dual of an oriented tree t.

    Vertices are the functions f assigning to every vertex u of t an arc
    incident to u; there is an arc f -> g iff f(u) != g(v) for every arc
    (u, v) of t.  Functions are flattened in lexicographic order of their
    arc-index vectors.
    """
    if not is_oriented_tree(t):
        raise ConstructionError("tree_dual needs an oriented tree")
    incident: list[list[int]] = [[] for _ in range(t.n)]
    for a, (u, v) in enumerate(t.arcs):
        incident[u].append(a)
        incident[v].append(a)
    size = 1
    for lst in incident:
        size *= len(lst)
        if size > DEFAULT_VERTEX_LIMIT:
            raise SizeLimitExceeded("tree_dual", size, DEFAULT_VERTEX_LIMIT)
    funcs = list(iter_product(*incident))
    index = {f: i for i, f in enumerate(funcs)}
    arcs = []
    for f in funcs:
        # g is a successor of f iff g(v) avoids f(u) for every arc (u,v);
        # build the allowed choices per vertex and take their product
        allowed: list[list[int]] = []
        feasible = True
        for v in range(t.n):
            forbidden = {f[u] for u, w in t.arcs if w == v}
            choices = [a for a in incident[v] if a not in forbidden]
            if not choices:
                feasible = False
                break
            allowed.append(choices)
        if not feasible:
            continue
        for gfun in iter_product(*allowed):
            arcs.append((index[f], index[gfun]))
    labels = tuple(tuple(t.arcs[a] for a in f) for f in funcs)
    name = f"dual({t.name})" if t.name else "dual"
    return make_digraph(len(funcs), arcs, name=name, labels=labels)


def circular_complete(n: int, k: int) -> Digraph:
    """Vertices 0..n-1; i and j joined both ways iff their circular distance
    (i-j) mod n lies in [k, n-k]."""
    if not (n >= 2 * k >= 2):
        raise ConstructionError(f"need n >= 2k >= 2, got n={n} k={k}")
    if n > DEFAULT_VERTEX_LIMIT:
        raise SizeLimitExceeded("circular_complete", n, DEFAULT_VERTEX_LIMIT)
    arcs = []
    for i in range(n):
        for j in range(n):
            if i != j and k <= (i - j) % n <= n - k:
                arcs.append((i, j))
    return make_digraph(n, arcs, name=f"K_{n}/{k}")


def b_graph(n: int, k: int) -> Digraph:
    """Symmetrisation of the k-tuple interleaved adjoint of the transitive
    n-tournament."""
    if not (n >= 2 * k >= 2):
        raise ConstructionError(f"need n >= 2k >= 2, got n={n} k={k}")
    g = symmetrize(interleaved_adjoint(tournament(n), k))
    return g.rename(f"B({n},{k})")

"""Exact chromatic numbers via branch and bound.

The chromatic number of a digraph is that of its symmetrisation; the solver
works on bitmask adjacency, using a greedy saturation-order upper bound and
a clique lower bound, then one k-colourability decision per candidate k with
colour-symmetry breaking.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import log2
from typing import Optional, Sequence

from .core import Digraph, symmetrize
from .constructions import arc_graph


@dataclass(frozen=True)
class ColouringResult:
    """Exact chromatic data: chi is None only when the colour limit was hit."""

    chi: Optional[int]
    colouring: Optional[tuple[int, ...]]
    lower_bound_cert: Optional[tuple[int, ...]]
    exceeded_limit: bool = False


def check_colouring(g: Digraph, colours: Sequence[int]) -> bool:
    """True iff colours differ across every arc (loops therefore always fail)."""
    if len(colours) != g.n:
        raise ValueError(f"colouring length {len(colours)} != |V| = {g.n}")
    return all(colours[u] != colours[v] for u, v in g.arcs)


def _adjacency_masks(g: Digraph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.arcs:
        if u != v:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return masks


def _greedy_colouring(masks: list[int]) -> list[int]:
    """DSATUR-style greedy: highest saturation first, degrees break ties."""
    n = len(masks)
    colours = [-1] * n
    sat = [0] * n  # bitmask of neighbour colours
    degs = [m.bit_count() for m in masks]
    for _ in range(n):
        u = max(
            (v for v in range(n) if colours[v] < 0),
            key=lambda v: (sat[v].bit_count(), degs[v], -v),
        )
        c = 0
        while sat[u] >> c & 1:
            c += 1
        colours[u] = c
        for v in range(n):
            if masks[u] >> v & 1:
                sat[v] |= 1 << c
    return colours

def _greedy_clique(masks: list[int]) -> list[int]:
    """Best clique found by greedy growth from each vertex in degree order."""
    n = len(masks)
    order = sorted(range(n), key=lambda v: -masks[v].bit_count())
    best: list[int] = []
    for start in order[: min(n, 24)]:
        clique = [start]
        common = masks[start]
        while common:
            u = max(
                (v for v in range(n) if common >> v & 1),
                key=lambda v: (masks[v] & common).bit_count(),
            )
            clique.append(u)
            common &= masks[u]
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def _decide_colourable(masks: list[int], k: int) -> Optional[list[int]]:
    """Backtracking k-colourability decision in dynamic saturation order.

    Colour symmetry is broken by allowing at most one fresh colour per step.
    """
    n = len(masks)
    if n == 0:
        return []
    colours = [-1] * n
    sat = [0] * n
    degs = [m.bit_count() for m in masks]

    def assign(done: int, used: int) -> bool:
        if done == n:
            return True
        u = max(
            (v for v in range(n) if colours[v] < 0),
            key=lambda v: (sat[v].bit_count(), degs[v], -v),
        )
        limit = min(k, used + 1)
        for c in range(limit):
            if sat[u] >> c & 1:
                continue
            colours[u] = c
            changed = []
            for v in range(n):
                if masks[u] >> v & 1 and not sat[v] >> c & 1:
                    sat[v] |= 1 << c
                    changed.append(v)
            if assign(done + 1, max(used, c + 1)):
                return True
            colours[u] = -1
            for v in changed:
                sat[v] &= ~(1 << c)
        return False

    old_limit = sys.getrecursionlimit()
    if old_limit < n + 128:
        sys.setrecursionlimit(n + 256)
    try:
        return colours if assign(0, 0) else None
    finally:
        sys.setrecursionlimit(old_limit)


def chromatic_number(g: Digraph, limit: Optional[int] = None) -> ColouringResult:
    """Exact chromatic number of (the symmetrisation of) g.

    Conventions: 0 for the empty digraph, 1 when there are vertices but no
    arcs.  A loop makes the chromatic number undefined and is rejected.
    With ``limit``, values above it are reported as exceeded instead of
    computed.
    """
    if g.has_loop():
        raise ValueError("chromatic number undefined: digraph has a loop")
    if limit is not None and limit < 1:
        raise ValueError("colour limit must be >= 1")
    if g.n == 0:
        return ColouringResult(0, (), None)
    sym = symmetrize(g)
    if not sym.arcs:
        return ColouringResult(1, (0,) * g.n, (0,))
    masks = _adjacency_masks(sym)
    greedy = _greedy_colouring(masks)
    ub = max(greedy) + 1
    clique = _greedy_clique(masks)
    lb = max(len(clique), 2)
    best_colouring = greedy
    for k in range(lb, ub):
        if limit is not None and k > limit:
            return ColouringResult(None, None, None, exceeded_limit=True)
        attempt = _decide_colourable(masks, k)
        if attempt is not None:
            ub = k
            best_colouring = attempt
            break
    if limit is not None and ub > limit:
        return ColouringResult(None, None, None, exceeded_limit=True)
    cert = tuple(clique) if len(clique) == ub else None
    return ColouringResult(ub, tuple(best_colouring), cert)


@dataclass(frozen=True)
class ArcGraphChiReport:
    """Logarithmic sandwich for the chromatic number of the arc graph."""

    lower: float
    upper: float
    actual: int
    within_bounds: bool


def chi_bounds_arc_graph(g: Digraph) -> ArcGraphChiReport:
    """chi of the arc graph against its log2 bounds in chi(g)."""
    chi_g = chromatic_number(g).chi
    assert chi_g is not None
    if chi_g == 0:
        lower = upper = 0.0
    else:
        lower, upper = log2(chi_g), 2 * log2(chi_g)
    actual = chromatic_number(arc_graph(g)).chi
    assert actual is not None
    return ArcGraphChiReport(lower, upper, actual, lower <= actual <= upper)

"""Exact chromatic numbers via branch and bound.

The chromatic number of a digraph is that of its symmetrisation; the solver
works on the digraph's neighbour masks.  One DSATUR search on an explicit
stack decides k-colourability with colour-symmetry breaking; its first
descent with n colours never backtracks and is the greedy upper bound.  A
greedy clique gives the lower bound, and one decision runs per candidate k.
The search picks its next vertex from saturation buckets, int bitmasks over
the digraph's cached degree order, kept up to date as colours are set and
undone, so no search node scans every vertex.  An optional budget caps the
colour assignments of all decisions together.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log2
from typing import Optional, Sequence, Union

from .core import BUDGET_EXCEEDED, Digraph, _Budget
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


def _bits(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _greedy_clique(masks: Sequence[int], starts: int) -> list[int]:
    """Best clique grown greedily from each of the ``starts`` vertices of
    highest degree (lowest index first on ties), in growth order.

    Each step adds the candidate with the most neighbours among the
    remaining candidates, the lowest index on ties.
    """
    best: list[int] = []
    for start in sorted(range(len(masks)), key=lambda v: -masks[v].bit_count())[:starts]:
        clique = [start]
        common = masks[start]
        while common:
            u = max(_bits(common), key=lambda v: (masks[v] & common).bit_count())
            clique.append(u)
            common &= masks[u]
        if len(clique) > len(best):
            best = clique
    return best


def _decide_colourable(
    g: Digraph, nbrs: Sequence[Sequence[int]], k: int, budget: float
) -> tuple[Union[list[int], None, _Budget], int]:
    """Backtracking k-colourability decision in dynamic saturation order
    (DSATUR): highest saturation first, then highest degree, then lowest
    index; colours ascending.  ``nbrs[v]`` lists the neighbours of v.

    Colour symmetry is broken by allowing at most one fresh colour per step.
    With k = n the first descent never backtracks and is the greedy DSATUR
    colouring.  The search runs on an explicit stack; a frame is [vertex,
    next colour to try, colours in use before it, neighbours whose
    saturation its colour set].

    The next vertex comes from saturation buckets: ``buckets[s]`` holds, as
    one int, the uncoloured vertices with s neighbour colours, vertex v at
    bit ``g.degree_rank[v]``.  The rank orders by descending degree, then
    ascending index, so the lowest set bit of the highest non-empty bucket
    is the DSATUR choice.  A vertex changes bucket only when a neighbour's
    colour is set or undone, so a node costs work in its changed
    neighbours, not in n.

    Returns the colouring, None when there is none, or BUDGET_EXCEEDED once
    more than ``budget`` colours have been assigned; and the number of
    assignments made.
    """
    n = g.n
    order = g.degree_order
    bits = [1 << r for r in g.degree_rank]
    colours = [-1] * n
    sat = [0] * n  # bitmask of neighbour colours
    buckets = [0] * (k + 1)
    buckets[0] = (1 << n) - 1
    frames: list[list] = []
    used = 0
    assigned = 0
    while len(frames) < n:
        s = used  # no saturation exceeds the colours in use
        while not buckets[s]:
            s -= 1
        low = buckets[s] & -buckets[s]
        buckets[s] ^= low
        frames.append([order[low.bit_length() - 1], 0, used, ()])
        while True:
            if not frames:
                return None, assigned
            frame = frames[-1]
            u, c, used, changed = frame
            if changed:
                bit = 1 << c - 1
                for v in changed:
                    sat[v] ^= bit
                    if colours[v] < 0:
                        s = sat[v].bit_count()
                        b = bits[v]
                        buckets[s + 1] ^= b
                        buckets[s] |= b
            limit = used + 1 if used < k else k
            while c < limit and sat[u] >> c & 1:
                c += 1
            if c == limit:
                colours[u] = -1
                buckets[sat[u].bit_count()] |= bits[u]
                frames.pop()
                continue
            assigned += 1
            if assigned > budget:
                return BUDGET_EXCEEDED, assigned
            colours[u] = c
            bit = 1 << c
            changed = [v for v in nbrs[u] if not sat[v] & bit]
            for v in changed:
                sat[v] |= bit
                if colours[v] < 0:
                    s = sat[v].bit_count()
                    b = bits[v]
                    buckets[s - 1] ^= b
                    buckets[s] |= b
            frame[1], frame[3] = c + 1, changed
            if c == used:
                used += 1
            break
    return colours, assigned


def chromatic_number(
    g: Digraph, limit: Optional[int] = None, budget: Optional[int] = None
) -> Union[ColouringResult, _Budget]:
    """Exact chromatic number of (the symmetrisation of) g.

    Conventions: 0 for the empty digraph, 1 when there are vertices but no
    arcs.  A loop makes the chromatic number undefined and is rejected.
    With ``limit``, values above it are reported as exceeded instead of
    computed.  With ``budget``, BUDGET_EXCEEDED is returned once more than
    that many colours have been assigned over all k-decisions; None means
    no limit.
    """
    if g.has_loop():
        raise ValueError("chromatic number undefined: digraph has a loop")
    if limit is not None and limit < 1:
        raise ValueError("colour limit must be >= 1")
    if budget is not None and budget <= 0:
        raise ValueError("budget must be positive")
    if g.n == 0:
        return ColouringResult(0, (), None)
    masks = g.neighbour_masks
    if not any(masks):
        return ColouringResult(1, (0,) * g.n, (0,))
    nbrs = [list(_bits(m)) for m in masks]
    left = inf if budget is None else budget
    greedy, spent = _decide_colourable(g, nbrs, g.n, left)
    if greedy is BUDGET_EXCEEDED:
        return BUDGET_EXCEEDED
    left -= spent
    ub = max(greedy) + 1
    clique = sorted(_greedy_clique(masks, 24))
    lb = max(len(clique), 2)
    best_colouring = greedy
    for k in range(lb, ub):
        if limit is not None and k > limit:
            return ColouringResult(None, None, None, exceeded_limit=True)
        attempt, spent = _decide_colourable(g, nbrs, k, left)
        if attempt is BUDGET_EXCEEDED:
            return BUDGET_EXCEEDED
        left -= spent
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

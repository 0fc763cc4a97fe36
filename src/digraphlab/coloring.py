"""Exact chromatic numbers via branch and bound.

The chromatic number of a digraph is that of its symmetrisation.  One
DSATUR search decides k-colourability with colour-symmetry breaking, on an
explicit stack of per-depth int lists.  The digraph's cached greedy clique
(``Digraph.greedy_clique``) gives the lower bound and its certificate.  One
decision runs per k counting up from the clique's size, until one colours.
The search state is int bitmasks over the cached degree order, the
saturation counts as ``k.bit_length()`` bit planes allocated up front, so a
node costs a few whole-graph int operations, no loop over neighbours and no
new list.  An optional budget caps the colour assignments of all decisions
together.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import inf
from typing import Optional, Sequence, Union

from .core import BUDGET_EXCEEDED, Digraph, _Budget


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
    for u, v in g.arcs:
        if colours[u] == colours[v]:
            return False
    return True


def _decide_colourable(
    g: Digraph, k: int, budget: float
) -> tuple[Union[list[int], None, _Budget], int]:
    """Backtracking k-colourability decision in dynamic saturation order
    (DSATUR): highest saturation first, then highest degree, then lowest
    index; colours ascending, at most one fresh colour per step to break
    colour symmetry.  Masks come from ``g.rank_masks``, which hold each
    vertex at the bit of its position in ``g.degree_order``.

    The search runs on an explicit stack of four int lists indexed by
    depth: the rank of the vertex coloured there, the next colour to try
    for it, the colours in use before it, and the vertices its colour newly
    blocked.  ``blocked[c]`` holds the vertices with a neighbour coloured
    c, and ``planes`` holds one plane per bit of the saturation counts,
    highest bit first: the vertices whose count has that bit set.  A count
    never exceeds k, so its ``k.bit_length()`` planes are allocated up
    front.  Narrowing the uncoloured vertices plane by plane from the top
    leaves those of highest saturation, whose lowest set bit is the DSATUR
    choice.  Setting or undoing a colour adds or takes one along a carry or
    borrow chain: O(log k) whole-graph int operations per node, none per
    neighbour.

    Returns the colouring, None when there is none, or BUDGET_EXCEEDED once
    more than ``budget`` colours have been assigned; and the number of
    assignments made.
    """
    n, nb = g.n, g.rank_masks
    # an int compares faster than inf, and no search gets to sys.maxsize
    budget = min(budget, sys.maxsize)
    blocked = [0] * k
    planes = [0] * k.bit_length()
    units = len(planes) - 1  # the plane of bit 0, where a chain starts
    ranks, nexts, useds, newlys = [0] * n, [0] * n, [0] * n, [0] * n
    free = (1 << n) - 1  # the uncoloured vertices
    depth = used = assigned = 0
    limit = min(1, k)  # colours open to a vertex: those in use and one fresh
    while depth < n:
        pick = free
        for plane in planes:
            top = pick & plane
            if top:
                pick = top
        low = pick & -pick
        free ^= low
        rank = low.bit_length() - 1
        c = 0
        while True:
            while c < limit and blocked[c] & low:
                c += 1
            if c < limit:
                break
            # no colour left: give the vertex back, undo the colour below
            # and try its next
            free |= low
            if not depth:
                return None, assigned
            depth -= 1
            rank, c = ranks[depth], nexts[depth]
            low = 1 << rank
            if used != useds[depth]:
                used = useds[depth]
                limit = used + 1 if used < k else k
            newly = newlys[depth]
            blocked[c - 1] ^= newly
            j = units
            while newly:
                plane = planes[j]
                planes[j] = plane ^ newly
                newly &= ~plane
                j -= 1
        assigned += 1
        if assigned > budget:
            return BUDGET_EXCEEDED, assigned
        newly = carry = nb[rank] & ~blocked[c]
        blocked[c] |= carry
        j = units
        while carry:
            plane = planes[j]
            planes[j] = plane ^ carry
            carry &= plane
            j -= 1
        ranks[depth] = rank
        nexts[depth] = c + 1
        useds[depth] = used
        newlys[depth] = newly
        depth += 1
        if c == used:
            used += 1
            limit = used + 1 if used < k else k
    colours = [0] * n
    order = g.degree_order
    for rank, c in zip(ranks, nexts):
        colours[order[rank]] = c - 1
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
    if not g.arcs:
        return ColouringResult(1, (0,) * g.n, (0,))
    left = inf if budget is None else budget
    clique = sorted(g.greedy_clique)
    k = max(len(clique), 2)
    while True:
        if limit is not None and k > limit:
            return ColouringResult(None, None, None, exceeded_limit=True)
        colouring, spent = _decide_colourable(g, k, left)
        if colouring is BUDGET_EXCEEDED:
            return BUDGET_EXCEEDED
        if colouring is not None:
            cert = tuple(clique) if len(clique) == k else None
            return ColouringResult(k, tuple(colouring), cert)
        left -= spent
        k += 1

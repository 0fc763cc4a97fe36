"""Exact chromatic numbers via branch and bound.

The chromatic number of a digraph is that of its symmetrisation; the solver
works on the digraph's neighbour masks.  One DSATUR search on an explicit
stack decides k-colourability with colour-symmetry breaking; its first
descent with n colours never backtracks and is the greedy upper bound.  A
greedy clique gives the lower bound, and one decision runs per candidate k.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import Optional, Sequence

from .core import Digraph
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


def _decide_colourable(masks: Sequence[int], k: int) -> Optional[list[int]]:
    """Backtracking k-colourability decision in dynamic saturation order
    (DSATUR): highest saturation first, then highest degree, then lowest
    index; colours ascending.

    Colour symmetry is broken by allowing at most one fresh colour per step.
    With k = n the first descent never backtracks and is the greedy DSATUR
    colouring.  The search runs on an explicit stack; a frame is [vertex,
    next colour to try, colours in use before it, neighbours whose
    saturation its colour set].
    """
    n = len(masks)
    colours = [-1] * n
    sat = [0] * n  # bitmask of neighbour colours
    degs = [m.bit_count() for m in masks]
    nbrs = [list(_bits(m)) for m in masks]
    frames: list[list] = []
    used = 0
    while len(frames) < n:
        u = max(
            (v for v in range(n) if colours[v] < 0),
            key=lambda v: (sat[v].bit_count(), degs[v], -v),
        )
        frames.append([u, 0, used, ()])
        while True:
            if not frames:
                return None
            frame = frames[-1]
            u, c, used, changed = frame
            if changed:
                bit = 1 << c - 1
                for v in changed:
                    sat[v] ^= bit
            limit = min(k, used + 1)
            while c < limit and sat[u] >> c & 1:
                c += 1
            if c == limit:
                colours[u] = -1
                frames.pop()
                continue
            colours[u] = c
            bit = 1 << c
            changed = [v for v in nbrs[u] if not sat[v] & bit]
            for v in changed:
                sat[v] |= bit
            frame[1], frame[3] = c + 1, changed
            used = max(used, c + 1)
            break
    return colours


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
    masks = g.neighbour_masks
    if not any(masks):
        return ColouringResult(1, (0,) * g.n, (0,))
    greedy = _decide_colourable(masks, g.n)
    ub = max(greedy) + 1
    clique = sorted(_greedy_clique(masks, 24))
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

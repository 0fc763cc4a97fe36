"""Machine checks for the library's structural claims.

Each verifier returns a VerifyReport whose witnesses (homomorphisms,
colourings, paths, counterexamples) revalidate through the core modules
independently of the verifier that produced them.  Random sweeps use a
seeded generator recorded in the report.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass, field, replace
from functools import wraps
from itertools import permutations
from math import ceil
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .coloring import check_colouring, chromatic_number
from .constructions import (
    arc_graph,
    arc_graph_iter,
    b_graph,
    circular_complete,
    complete,
    interleaved_adjoint,
    inverse_interleaved_adjoint,
    path,
    tournament,
    tree_dual,
)
from .core import (
    Digraph,
    Hom,
    SizeLimitExceeded,
    induced,
    make_digraph,
    to_json_dict,
    validate_hom,
)
from .homs import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    _Budget,
    arc_consistency,
    brute_force_hom,
    hom_equivalent,
    hom_exists,
    tree_hom,
)
from .level_search import find_level_walk
from .paths import BACKWARD, FORWARD, OrientedPath, path_family, standard_path
from .product import categorical_product

PASS = "PASS"
FAIL = "FAIL"
INDETERMINATE = "INDETERMINATE"
#: Verdict of a profile job that raised: it says nothing about the claim.
ERROR = "ERROR"

#: Steep-path searches beyond this span are out of desk scale: at ell = 7
#: the 1,941 family members make the subset states too large to store.
MAX_STEEP_SPAN = 6

#: Largest k accepted by h_function (dual sizes stay <= 2^(3k-1)).
MAX_H_K = 3

#: Largest vertex count of an exhaustive source sweep: 5 vertices would
#: give 33,554,432 labelled digraphs in 291,968 classes.
MAX_SOURCE_VERTICES = 4

#: Largest map space |V(target)|^|V(g)| that width1-completeness re-checks
#: by plain enumeration.
WIDTH1_BRUTE_CAP = 50_000


@dataclass
class VerifyReport:
    claim: str
    params: dict
    verdict: str
    witnesses: dict
    seed: Optional[int] = None
    timing_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_json_dict(self, include_timing: bool = True) -> dict:
        d = {
            "claim": self.claim,
            "params": self.params,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "seed": self.seed,
        }
        if include_timing:
            d["timing_ms"] = self.timing_ms
        return d


#: What a registered check returns: (params, verdict, witnesses).
Outcome = tuple[dict, str, dict]

#: Claim name -> verifier, for `run_job` and the `verify` CLI.
REGISTRY: dict[str, Callable[..., VerifyReport]] = {}

#: Instance claim -> the sweep that `verify --claim` runs when none of the
#: instance's graph files is given.
SWEEPS = {
    "gencol": "gencol-sweep", "adjunction": "adjunction-sweep", "finobs": "finobs-exhaustive",
    "duality-tree": "duality-tree-exhaustive", "mulpath": "mulpath-sweep", "hompath": "hompath-sweep",
}
#: Graph parameter -> the `verify` flag naming its file, and per claim where it differs.
FILE_FLAGS = {"g": "input", "t": "tree", "factors": "factors"}
CLAIM_FILE_FLAGS = {"adjunction": {"g": "source", "h": "target"}}


def verifier(claim: str) -> Callable[[Callable[..., Outcome]], Callable[..., VerifyReport]]:
    """Register a check under its claim name and make it return a VerifyReport.

    The report carries the claim, the check's `seed` argument when it takes
    one (else None), and timing_ms, the check's wall time.
    """

    def register(check: Callable[..., Outcome]) -> Callable[..., VerifyReport]:
        signature = inspect.signature(check)

        @wraps(check)
        def run(*args, **kwargs) -> VerifyReport:
            start = time.perf_counter()
            params, verdict, witnesses = check(*args, **kwargs)
            ms = (time.perf_counter() - start) * 1000.0
            seed = None
            if "seed" in signature.parameters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                seed = bound.arguments["seed"]
            return VerifyReport(claim, params, verdict, witnesses, seed, round(ms, 3))

        REGISTRY[claim] = run
        return run

    return register


def _sweep(
    reports: Iterable[VerifyReport], sizes: Optional[Sequence[int]] = None
) -> tuple[str, dict]:
    """Verdict and witnesses of sub-checks run in order.

    The sweep stops at the first INDETERMINATE report, and FAIL >
    INDETERMINATE > PASS: a failure recorded before the stop makes it FAIL,
    else it takes that report's witnesses.  A failure is kept as its index,
    params and witnesses.  ``checked`` counts the reports run before the
    stop; with ``sizes``, report i counts as sizes[i] (a class of sources).
    """
    failures = []
    checked = 0
    for i, rep in enumerate(reports):
        if rep.verdict == INDETERMINATE:
            return _stopped(checked, failures, rep.witnesses)
        checked += sizes[i] if sizes is not None else 1
        if rep.verdict == FAIL:
            failures.append({"index": i, "params": rep.params, "witnesses": rep.witnesses})
    return (FAIL if failures else PASS), {"checked": checked, "failures": failures}


def _stopped(checked: int, failures: list, stopped_by: dict) -> tuple[str, dict]:
    """Verdict and witnesses of sub-checks stopped by an undecided one: FAIL
    keeps the failures found before the stop, else INDETERMINATE."""
    if not failures:
        return INDETERMINATE, stopped_by
    return FAIL, {"checked": checked, "failures": failures, "stopped_by": stopped_by}


def _first_path_into(
    paths: Iterable[tuple[OrientedPath, Digraph]], g: Digraph
) -> Optional[tuple[OrientedPath, Hom]]:
    """The first (path, hom) of ``paths``, pairs of a path and its digraph,
    whose path maps into g; None when none does.  Each search is budgeted
    by its path's vertex count: a search from an arc-consistent tree never
    backtracks (Freuder, JACM 1982), so ``hom_exists``'s tree path and its
    search into K_c each try at most one value per vertex.  Running out is
    an engine fault, raised as AssertionError."""
    for p, pd in paths:
        w = hom_exists(pd, g, pd.n)
        if w is BUDGET_EXCEEDED:
            raise AssertionError(f"path search {p.dirs} ran past {pd.n} nodes")
        if w is not None:
            return p, w
    return None


def _hom_json(h: Hom) -> list[int]:
    return list(h.map)


def _count(name: str, value: int) -> None:
    """A sweep's sample count is a usage error below zero."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


# --- instance generators ------------------------------------------------------


def random_digraph(rng: random.Random, n: int, p: float, loop_p: float = 0.0) -> Digraph:
    arcs = []
    for u in range(n):
        for v in range(n):
            if u == v:
                if loop_p and rng.random() < loop_p:
                    arcs.append((u, u))
            elif rng.random() < p:
                arcs.append((u, v))
    return make_digraph(n, arcs, name=f"random({n})")


def _source_vertices(max_vertices: int) -> int:
    if max_vertices > MAX_SOURCE_VERTICES:
        raise SizeLimitExceeded("source digraphs", max_vertices, MAX_SOURCE_VERTICES)
    return max_vertices


def all_digraphs(max_vertices: int) -> Iterator[Digraph]:
    """Every digraph with at most max_vertices vertices, loops allowed, by arc-set rank.

    More than MAX_SOURCE_VERTICES vertices is SizeLimitExceeded, raised
    before the first digraph is built."""
    for n in range(_source_vertices(max_vertices) + 1):
        pairs = [(u, v) for u in range(n) for v in range(n)]
        for mask in range(1 << len(pairs)):
            arcs = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            yield make_digraph(n, arcs)


def digraph_classes(max_vertices: int) -> list[tuple[Digraph, int]]:
    """One digraph per isomorphism class with at most max_vertices vertices,
    loops allowed, by vertex count, each paired with its class size
    n!/|Aut|, the number of labelled digraphs in the class.

    Deleting vertex n - 1 of a digraph on n vertices leaves a digraph on
    n - 1.  So extending every kept class on n - 1 vertices by each choice
    of a loop at, and arcs to and from, a new vertex n - 1 reaches every
    class on n vertices.  A candidate is kept when none of its relabellings
    was met before, and then all of them are recorded; their number is the
    class size.  Arc sets are int masks, bit n*u + v for the arc (u, v).
    More than MAX_SOURCE_VERTICES vertices is SizeLimitExceeded, raised
    before anything is built.
    """
    _source_vertices(max_vertices)
    out: list[tuple[Digraph, int]] = []
    # the kept classes on n vertices, as (arc list, class size)
    level: list[tuple[list[tuple[int, int]], int]] = [([], 1)]
    for n in range(max_vertices + 1):
        if n:
            new = n - 1
            links = [(new, new)] + [arc for x in range(new) for arc in ((x, new), (new, x))]
            extras: list[list[tuple[int, int]]] = [[]]  # every subset of links
            for arc in links:
                extras += [extra + [arc] for extra in extras]
            extra_masks = [sum(1 << n * u + v for u, v in extra) for extra in extras]
            perms = list(permutations(range(n)))
            seen: set[int] = set()
            kept = []
            for arcs, _ in level:
                base = sum(1 << n * u + v for u, v in arcs)
                for extra, extra_mask in zip(extras, extra_masks):
                    if base | extra_mask in seen:
                        continue
                    grown = arcs + extra
                    orbit = {sum(1 << n * p[u] + p[v] for u, v in grown) for p in perms}
                    seen |= orbit
                    kept.append((grown, len(orbit)))
            level = kept
        out.extend((make_digraph(n, arcs), size) for arcs, size in level)
    return out


def _tree_code(n: int, arcs: Sequence[tuple[int, int]]) -> tuple:
    """Isomorphism key of an oriented tree: the least rooted code over its
    one or two centre vertices, found by peeling leaves.  The rooted code of
    x is the sorted tuple of (0, code of y) for each arc x -> y and (1, code
    of y) for each arc y -> x, y a child of x.  An isomorphism maps centres
    to centres, so this separates isomorphism classes exactly as the least
    code over every root does."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v in arcs:
        adj[u].append((0, v))
        adj[v].append((1, u))

    def code(x: int, parent: int) -> tuple:
        return tuple(sorted((d, code(y, x)) for d, y in adj[x] if y != parent))

    degree = [len(a) for a in adj]
    leaves = [x for x in range(n) if degree[x] <= 1]
    left = n
    while left > 2:
        left -= len(leaves)
        inner = []
        for x in leaves:
            for _, y in adj[x]:
                degree[y] -= 1
                if degree[y] == 1:
                    inner.append(y)
        leaves = inner
    return min(code(r, -1) for r in leaves)


def oriented_trees(max_arcs: int) -> list[Digraph]:
    """All oriented trees with at most max_arcs arcs, up to isomorphism,
    by arc count.

    Removing a leaf from a tree with m arcs leaves a tree with m - 1 arcs.
    So hanging a new vertex m off every vertex x of every kept tree with
    m - 1 arcs, once by the arc (x, m) and once by (m, x), reaches every
    class with m arcs; the first tree of each class under ``_tree_code`` is
    kept.
    """
    out: list[Digraph] = []
    level: list[list[tuple[int, int]]] = [[]]  # arc lists of the kept m-arc trees
    for m in range(max_arcs + 1):
        if m:
            kept: dict[tuple, list[tuple[int, int]]] = {}
            for arcs in level:
                for x in range(m):
                    for arc in ((x, m), (m, x)):
                        grown = arcs + [arc]
                        kept.setdefault(_tree_code(m + 1, grown), grown)
            level = list(kept.values())
        out.extend(make_digraph(m + 1, arcs) for arcs in level)
    return out


# --- interleaving bounds ------------------------------------------------------


@verifier("gencol")
def verify_gencol(g: Digraph, k: int = 2) -> Outcome:
    """Chromatic sandwich for the k-tuple adjoint, with both witness maps.

    Checks chi(iterated arc graph, 2k-2 times) <= chi(k-tuple adjoint)
    <= chi(g), validating the even-coordinate projection into the adjoint and
    the first-coordinate projection out of it.
    """
    params = {"graph": to_json_dict(g), "k": k}
    m = 2 * k - 2
    if m == 0:
        delta = g
        chains: Sequence[tuple[int, ...]] = [(v,) for v in range(g.n)]
    else:
        delta = arc_graph_iter(g, m)
        chains = delta.labels or []
    iota = interleaved_adjoint(g, k)
    chi_delta = chromatic_number(delta).chi
    chi_iota = chromatic_number(iota).chi
    chi_g = chromatic_number(g).chi
    sandwich = chi_delta <= chi_iota <= chi_g

    rank = {lab: i for i, lab in enumerate(iota.labels)}
    phi = Hom(tuple(rank[chain[0::2]] for chain in chains))
    phi_ok = validate_hom(phi, delta, iota)
    psi = Hom(tuple(lab[0] for lab in iota.labels))
    psi_ok = validate_hom(psi, iota, g)

    verdict = PASS if sandwich and phi_ok and psi_ok else FAIL
    witnesses = {
        "chi_delta_iter": chi_delta,
        "chi_adjoint": chi_iota,
        "chi_g": chi_g,
        "sandwich": sandwich,
        "even_projection_map": _hom_json(phi),
        "even_projection_valid": phi_ok,
        "first_coordinate_map": _hom_json(psi),
        "first_coordinate_valid": psi_ok,
        "lower_tight": chi_delta == chi_iota,
        "upper_tight": chi_iota == chi_g,
    }
    return params, verdict, witnesses


@verifier("gencol-sweep")
def verify_gencol_sweep(
    samples: int = 100,
    max_vertices: int = 5,
    k: int = 2,
    seed: int = 20103,
) -> Outcome:
    _count("samples", samples)
    rng = random.Random(seed)
    reports = (
        verify_gencol(random_digraph(rng, rng.randint(1, max_vertices), rng.uniform(0.15, 0.6)), k)
        for _ in range(samples)
    )
    return {"samples": samples, "max_vertices": max_vertices, "k": k}, *_sweep(reports)


@verifier("gencol-tightness")
def verify_gencol_tightness() -> Outcome:
    """Both ends of the sandwich are attained: symmetric graphs upstairs,
    arc graphs downstairs."""
    sym_case = verify_gencol(complete(3), k=2)
    upper_ok = sym_case.passed and sym_case.witnesses["upper_tight"]
    diag = Hom(tuple(u * 3 + u for u in range(3)))
    diag_ok = validate_hom(diag, complete(3), interleaved_adjoint(complete(3), 2))

    low_graph = arc_graph(complete(4))
    low_case = verify_gencol(low_graph, k=2)
    lower_ok = low_case.passed and low_case.witnesses["lower_tight"]

    verdict = PASS if upper_ok and diag_ok and lower_ok else FAIL
    witnesses = {
        "symmetric_case": sym_case.witnesses,
        "diagonal_hom_valid": diag_ok,
        "arc_graph_case": low_case.witnesses,
    }
    return {"k": 2}, verdict, witnesses


# --- adjoint pair -------------------------------------------------------------


@verifier("adjunction")
def verify_adjunction(g: Digraph, h: Digraph, k: int = 2, budget: int = DEFAULT_BUDGET) -> Outcome:
    """Hom into the k-tuple adjoint of h agrees with hom out of the k-copy
    expansion of g, and each witness converts to the other side."""
    params = {"source": to_json_dict(g), "target": to_json_dict(h), "k": k}
    iota_h = interleaved_adjoint(h, k)
    istar_g = inverse_interleaved_adjoint(g, k)
    r1 = hom_exists(g, iota_h, budget)
    r2 = hom_exists(istar_g, h, budget)
    if r1 is BUDGET_EXCEEDED or r2 is BUDGET_EXCEEDED:
        return params, INDETERMINATE, {"budget": budget}

    agree = (r1 is not None) == (r2 is not None)
    witnesses: dict = {"into_adjoint": r1 is not None, "out_of_expansion": r2 is not None}
    ok = agree
    if r1 is not None:
        converted = [0] * istar_g.n
        for u in range(g.n):
            coords = iota_h.labels[r1.map[u]]
            for i in range(k):
                converted[u * k + i] = coords[i]
        conv1 = Hom(tuple(converted))
        witnesses["split_witness_valid"] = validate_hom(conv1, istar_g, h)
        witnesses["hom_into_adjoint"] = _hom_json(r1)
        ok = ok and witnesses["split_witness_valid"]
    if r2 is not None:
        rank = {lab: i for i, lab in enumerate(iota_h.labels)}
        conv2 = Hom(tuple(rank[tuple(r2.map[u * k + i] for i in range(k))] for u in range(g.n)))
        witnesses["bundle_witness_valid"] = validate_hom(conv2, g, iota_h)
        witnesses["hom_out_of_expansion"] = _hom_json(r2)
        ok = ok and witnesses["bundle_witness_valid"]
    return params, PASS if ok else FAIL, witnesses


@verifier("adjunction-sweep")
def verify_adjunction_sweep(
    samples: int = 200,
    max_vertices: int = 4,
    max_k: int = 3,
    seed: int = 20104,
    budget: int = DEFAULT_BUDGET,
) -> Outcome:
    """The adjunction on random pairs.  An INDETERMINATE sample is counted
    and skipped, so the other samples are still checked; FAIL >
    INDETERMINATE > PASS."""
    _count("samples", samples)
    rng = random.Random(seed)
    failures = []
    indeterminate = 0
    for i in range(samples):
        g = random_digraph(rng, rng.randint(1, max_vertices), rng.uniform(0.15, 0.7))
        h = random_digraph(rng, rng.randint(1, max_vertices), rng.uniform(0.15, 0.7))
        k = rng.randint(1, max_k)
        rep = verify_adjunction(g, h, k, budget)
        if rep.verdict == INDETERMINATE:
            indeterminate += 1
        elif not rep.passed:
            failures.append({"index": i, "params": rep.params, "witnesses": rep.witnesses})
    params = {"samples": samples, "max_vertices": max_vertices, "max_k": max_k}
    witnesses = {"checked": samples, "failures": failures, "indeterminate": indeterminate}
    verdict = FAIL if failures else (INDETERMINATE if indeterminate else PASS)
    return params, verdict, witnesses


# --- finite obstruction sets --------------------------------------------------


def _finobs_lift(p: OrientedPath, phi: Hom, g: Digraph, k: int, forward: Digraph) -> bool:
    """Rebuild the copy-level lift of phi onto ``forward``, the all-forward
    path with p's arc count: vertex i goes to copy f(i) of phi(i), where f
    starts at 1 and steps up on each backward arc of p."""
    levels = [1]
    for c in p.dirs:
        levels.append(levels[-1] + (0 if c == "+" else 1))
    if max(levels) > k:
        return False
    istar = inverse_interleaved_adjoint(g, k)
    lift = Hom(tuple(phi.map[i] * k + (levels[i] - 1) for i in range(p.n_vertices)))
    return validate_hom(lift, forward, istar)


def _finobs_paths(n: int, k: int) -> tuple[Digraph, list[tuple[OrientedPath, Digraph]]]:
    """``path(n)``, onto which a found path is lifted, and the paths with
    < k reversals of the n-arc path, each with its digraph."""
    return path(n), [(p, p.as_digraph()) for p in path_family(n, k - 1).members]


def _finobs_check(
    g: Digraph,
    n: int,
    k: int,
    target: Digraph,
    paths: tuple[Digraph, Sequence[tuple[OrientedPath, Digraph]]],
    budget: int,
) -> Outcome:
    """The finobs check of g against the adjoint ``target`` of the
    n-tournament and the ``paths`` of ``_finobs_paths(n, k)``, which a sweep
    builds once for every source; only the adjoint search takes ``budget``."""
    params = {"graph": to_json_dict(g), "n": n, "k": k}
    r = hom_exists(g, target, budget)
    if r is BUDGET_EXCEEDED:
        return params, INDETERMINATE, {"budget": budget}
    no_hom_to_adjoint = r is None

    forward, members = paths
    found = _first_path_into(members, g)
    some_path_maps = found is not None

    witnesses: dict = {
        "no_hom_to_adjoint": no_hom_to_adjoint,
        "obstruction_found": some_path_maps,
    }
    ok = no_hom_to_adjoint == some_path_maps
    if found is not None:
        p, w = found
        witnesses["path"] = p.dirs
        witnesses["path_hom"] = _hom_json(w)
        witnesses["lift_valid"] = _finobs_lift(p, w, g, k, forward)
        ok = ok and witnesses["lift_valid"]
    if r is not None:
        witnesses["hom_to_adjoint"] = _hom_json(r)
    return params, PASS if ok else FAIL, witnesses


def _finobs_args(n: int, k: int) -> None:
    """The finobs claims need the n-tournament and at most n reversals."""
    if not (n >= 0 and 1 <= k <= n + 1):
        raise ValueError(f"finobs needs n >= 0 and 1 <= k <= n + 1, got n={n} k={k}")


@verifier("finobs")
def verify_finobs(g: Digraph, n: int, k: int, budget: int = DEFAULT_BUDGET) -> Outcome:
    """No-hom into the adjoint of the n-tournament iff some path with < k
    reversals maps into g; a found path is lifted back as a sanity check."""
    _finobs_args(n, k)
    return _finobs_check(g, n, k, interleaved_adjoint(tournament(n), k), _finobs_paths(n, k), budget)


@verifier("finobs-exhaustive")
def verify_finobs_exhaustive(
    n: int, k: int, max_vertices: int = 3, budget: int = DEFAULT_BUDGET
) -> Outcome:
    """The finobs check on every digraph with at most max_vertices vertices.

    Both sides of the iff are invariant under relabelling the source, so
    one source per isomorphism class (``digraph_classes``) is checked, and
    ``checked`` counts labelled digraphs, the sum of the class sizes; a
    failure's index is its class index.  The target and the path digraphs
    are built once and shared by every source's searches.
    """
    _finobs_args(n, k)
    classes = digraph_classes(max_vertices)
    target = interleaved_adjoint(tournament(n), k)
    paths = _finobs_paths(n, k)
    reports = (
        VerifyReport("finobs", *_finobs_check(g, n, k, target, paths, budget))
        for g, _ in classes
    )
    params = {"n": n, "k": k, "max_vertices": max_vertices}
    return params, *_sweep(reports, [size for _, size in classes])


@verifier("minty")
def verify_minty(g: Digraph, c: int, k: int) -> Outcome:
    """Any digraph needing more than c colours receives a path with at most
    k-1 reversals out of the ck-arc family; path searches need no budget."""
    chi = chromatic_number(g).chi
    if chi is None or chi <= c:
        raise ValueError(f"hypothesis needs chi(g) > c, got chi={chi}, c={c}")
    params = {"graph": to_json_dict(g), "c": c, "k": k, "chi": chi}
    family = path_family(c * k, k - 1)
    found = _first_path_into(((p, p.as_digraph()) for p in family.members), g)
    if found is None:
        return params, FAIL, {"family_size": len(family)}
    p, w = found
    return params, PASS, {"path": p.dirs, "path_hom": _hom_json(w)}


# --- tree duality -------------------------------------------------------------


def _duality_check(t: Digraph, classes: Iterable[tuple[Digraph, int]], budget: int) -> Outcome:
    """hom(G, dual(T)) iff not hom(T, G) for each source G of ``classes``,
    pairs of a digraph and the number of labelled sources it stands for."""
    dual = tree_dual(t)
    params = {"tree": to_json_dict(t), "dual_vertices": dual.n}
    failures = []
    checked = 0
    for g, size in classes:
        a = hom_exists(g, dual, budget)
        if a is BUDGET_EXCEEDED:
            return params, *_stopped(checked, failures, {"budget": budget})
        b = tree_hom(t, g)
        checked += size
        if (a is not None) != (b is None):
            failures.append(
                {
                    "graph": to_json_dict(g),
                    "hom_to_dual": a is not None,
                    "tree_maps_in": b is not None,
                }
            )
    witnesses = {"checked": checked, "failures": failures}
    return params, PASS if not failures else FAIL, witnesses


@verifier("duality-tree")
def verify_duality_tree(
    t: Digraph,
    sources: Optional[Iterable[Digraph]] = None,
    budget: int = DEFAULT_BUDGET,
    max_source_vertices: int = 3,
) -> Outcome:
    """hom(G, dual(T)) iff not hom(T, G), over the given source sample,
    each source checked and counted once.  The default is every digraph
    with at most ``max_source_vertices`` vertices: one per isomorphism
    class, counted by class size.  The tree side is decided by
    ``tree_hom``, which needs no budget; ``budget`` bounds the dual side."""
    classes = digraph_classes(max_source_vertices) if sources is None else ((g, 1) for g in sources)
    return _duality_check(t, classes, budget)


@verifier("duality-tree-exhaustive")
def verify_duality_tree_exhaustive(
    max_tree_arcs: int = 4, max_source_vertices: int = 3, budget: int = DEFAULT_BUDGET
) -> Outcome:
    """Duality over every oriented tree (up to isomorphism) and every source
    digraph within the given sizes.  Sources are swept one per isomorphism
    class; ``sources`` and each tree's ``checked`` count labelled digraphs,
    the sum of the class sizes."""
    classes = digraph_classes(max_source_vertices)
    trees = oriented_trees(max_tree_arcs)
    params = {
        "max_tree_arcs": max_tree_arcs,
        "max_source_vertices": max_source_vertices,
        "trees": len(trees),
        "sources": sum(size for _, size in classes),
    }
    verdict, witnesses = _sweep(
        VerifyReport("duality-tree", *_duality_check(t, classes, budget)) for t in trees
    )
    if verdict != INDETERMINATE:
        del witnesses["checked"]  # the report lists only failures; params count the trees
    return params, verdict, witnesses


@verifier("inadprod")
def verify_inadprod(n: int, k: int, budget: int = DEFAULT_BUDGET) -> Outcome:
    """The adjoint of the n-tournament is hom-equivalent to the product of the
    duals of its obstruction paths.

    Direction into the product is checked factor by factor; the converse is
    certified by exhibiting, for every family member Q, a member P mapping
    into Q (so no obstruction embeds in the product, which forces the hom).
    The product itself is never materialized.  ``budget`` bounds the
    searches into the factors; the covers are path searches and need none.
    """
    params = {"n": n, "k": k}
    iota = interleaved_adjoint(tournament(n), k)
    members = [(p, p.as_digraph()) for p in path_family(n, k - 1).members]

    into = []
    for p, pd in members:
        w = hom_exists(iota, tree_dual(pd), budget)
        if w is BUDGET_EXCEEDED:
            return params, INDETERMINATE, {"budget": budget}
        if w is None:
            return params, FAIL, {"missing_factor": p.dirs}
        into.append({"factor": p.dirs, "hom": _hom_json(w)})

    covers = []
    for q, qd in members:
        hit = _first_path_into(members, qd)
        if hit is None:
            return params, FAIL, {"uncovered": q.dirs}
        p, w = hit
        covers.append({"obstruction": q.dirs, "mapped_path": p.dirs, "hom": _hom_json(w)})
    return params, PASS, {"into_factors": into, "obstruction_covers": covers}


# --- paths, products, algebraic length ----------------------------------------


@verifier("mulpath")
def verify_mulpath(factors: Sequence[Digraph], n: int, budget: int = DEFAULT_BUDGET) -> Outcome:
    """A product maps to the n-arc forward path iff one factor does."""
    params = {"factors": [to_json_dict(f) for f in factors], "n": n}
    spec = categorical_product(factors)
    try:
        prod = spec.materialize()
    except SizeLimitExceeded as e:
        return params, INDETERMINATE, {"guard": str(e)}
    target = path(n)
    lhs = hom_exists(prod, target, budget)
    rhs = [hom_exists(f, target, budget) for f in factors]
    if lhs is BUDGET_EXCEEDED or any(r is BUDGET_EXCEEDED for r in rhs):
        return params, INDETERMINATE, {"budget": budget}
    product_maps = lhs is not None
    factor_maps = [r is not None for r in rhs]
    verdict = PASS if product_maps == any(factor_maps) else FAIL
    witnesses = {"product_maps": product_maps, "factor_maps": factor_maps}
    if lhs is not None:
        witnesses["product_hom"] = _hom_json(lhs)
    return params, verdict, witnesses


@verifier("mulpath-sweep")
def verify_mulpath_sweep(
    samples: int = 50,
    max_vertices: int = 4,
    max_n: int = 3,
    seed: int = 20108,
    budget: int = DEFAULT_BUDGET,
) -> Outcome:
    _count("samples", samples)
    rng = random.Random(seed)
    reports = (
        verify_mulpath(
            [random_digraph(rng, rng.randint(1, max_vertices), rng.uniform(0.2, 0.7)) for _ in range(2)],
            rng.randint(1, max_n),
            budget,
        )
        for _ in range(samples)
    )
    return {"samples": samples, "max_vertices": max_vertices, "max_n": max_n}, *_sweep(reports)


@verifier("hompath")
def verify_hompath(g: Digraph, n: int, budget: int = DEFAULT_BUDGET) -> Outcome:
    """g maps to the n-arc forward path iff no oriented path of span n+1 maps
    into g; the path side runs as a layered walk search, which never needs
    more than |V|*(n+2) arcs."""
    params = {"graph": to_json_dict(g), "n": n}
    r = hom_exists(g, path(n), budget)
    if r is BUDGET_EXCEEDED:
        return params, INDETERMINATE, {"budget": budget}
    walk = find_level_walk(g.n, g.arcs, n + 1)
    witnesses: dict = {"maps_to_path": r is not None, "steep_path_found": walk is not None}
    ok = (r is not None) == (walk is None)
    if walk is not None:
        p = OrientedPath(walk.dirs)
        witnesses["witness_path"] = walk.dirs
        witnesses["witness_hom"] = list(walk.nodes)
        witnesses["witness_valid"] = (
            p.algebraic_length() == n + 1
            and p.n_arcs <= g.n * (n + 2)
            and validate_hom(Hom(walk.nodes), p.as_digraph(), g)
        )
        ok = ok and witnesses["witness_valid"]
    if r is not None:
        witnesses["hom_to_path"] = _hom_json(r)
    return params, PASS if ok else FAIL, witnesses


@verifier("hompath-sweep")
def verify_hompath_sweep(
    samples: int = 50,
    max_vertices: int = 4,
    max_n: int = 3,
    seed: int = 20109,
    budget: int = DEFAULT_BUDGET,
) -> Outcome:
    _count("samples", samples)
    rng = random.Random(seed)
    reports = (
        verify_hompath(
            random_digraph(rng, rng.randint(1, max_vertices), rng.uniform(0.2, 0.7)),
            rng.randint(1, max_n),
            budget,
        )
        for _ in range(samples)
    )
    return {"samples": samples, "max_vertices": max_vertices, "max_n": max_n}, *_sweep(reports)


# --- steep paths ---------------------------------------------------------------


@dataclass
class SteepPathResult:
    """A path of prescribed level span mapping into every member of the
    bounded-reversal family it was searched against."""

    ell: int
    path: OrientedPath
    family: tuple[OrientedPath, ...]
    factor_homs: tuple[Hom, ...]

    @property
    def n_arcs(self) -> int:
        return self.path.n_arcs


def find_steep_path(ell: int) -> SteepPathResult:
    """Construct a path of span ell mapping into every path of the
    (3k, k-1)-reversal family, k = ell - 2.

    For ell <= 2 the all-forward path works.  Otherwise a BFS runs over
    states (level, S_1, ..., S_m), where S_j is the set of vertices of
    member j at which a hom of the pattern read so far can end: a hom from
    an oriented path into a member is a walk that follows the pattern, so
    the sets are an exact state (the subset construction).  The pattern
    maps into every member while no S_j is empty.  The sets are packed into
    one int, so one step moves every member at once.  '+' is expanded
    before '-' and each state keeps its first parent, so the first state on
    level ell spells the lexicographically least shortest pattern; the
    factor homs are read back through the stored sets.

    ell > MAX_STEEP_SPAN is refused before anything is built.  An empty
    search would contradict the duality analysis and raises loudly.
    """
    if ell < 1:
        raise ValueError("span must be >= 1")
    if ell > MAX_STEEP_SPAN:
        raise SizeLimitExceeded("find_steep_path", ell, MAX_STEEP_SPAN)
    if ell <= 2:
        return SteepPathResult(ell, standard_path(ell), (), ())
    k = ell - 2
    family = path_family(3 * k, k - 1)

    # Member j owns bits [j*w, j*w + n) for its n vertices; bit j*w + n is
    # a spare that no set uses, so adding `low` carries into it exactly when
    # the member's set is non-empty.  A '+' step follows arcs i -> i+1 up
    # from bits in fwd_up and arcs i+1 -> i down from bits in fwd_down; a
    # '-' step follows the same arcs backwards.
    n = 3 * k + 1
    w = n + 1
    fwd_up = fwd_down = back_up = back_down = 0
    for j, member in enumerate(family.members):
        for i, c in enumerate(member.dirs):
            bit = 1 << (j * w + i)
            if c == FORWARD:
                fwd_up |= bit
                back_down |= bit << 1
            else:
                fwd_down |= bit << 1
                back_up |= bit
    ones = sum(1 << (j * w) for j in range(len(family)))
    low = ones * ((1 << n) - 1)
    spare = ones << n

    def step(x: int, symbol: str) -> int:
        if symbol == FORWARD:
            return ((x & fwd_up) << 1) | ((x & fwd_down) >> 1)
        return ((x & back_down) >> 1) | ((x & back_up) << 1)

    states = [(0, low)]
    parent = [-1]
    seen = {states[0]}
    head = 0
    while head < len(states) and states[-1][0] != ell:
        level, x = states[head]
        for symbol, nxt in ((FORWARD, level + 1), (BACKWARD, level - 1)):
            if not 0 <= nxt <= ell:
                continue
            y = step(x, symbol)
            if (y + low) & spare != spare or (nxt, y) in seen:
                continue
            seen.add((nxt, y))
            states.append((nxt, y))
            parent.append(head)
            if nxt == ell:
                break
        head += 1
    if states[-1][0] != ell:
        raise RuntimeError(
            "no steep path maps into every member of the obstruction family; "
            "this contradicts the duality analysis"
        )

    chain = [len(states) - 1]
    while parent[chain[-1]] >= 0:
        chain.append(parent[chain[-1]])
    sets = [states[s][1] for s in reversed(chain)]
    levels = [states[s][0] for s in reversed(chain)]
    q = OrientedPath("".join(FORWARD if b > a else BACKWARD for a, b in zip(levels, levels[1:])))
    assert q.algebraic_length() == ell

    # Walk back from the least vertex of each final set: the vertex before
    # v in member j is the least one of its set with the pattern's arc to v.
    # x & ~(x - ones) keeps the lowest bit of every member at once.
    v = sets[-1] & ~(sets[-1] - ones)
    walk = [v]
    for c, before in zip(reversed(q.dirs), reversed(sets[:-1])):
        x = step(v, BACKWARD if c == FORWARD else FORWARD) & before
        v = x & ~(x - ones)
        walk.append(v)
    walk.reverse()
    qd = q.as_digraph()
    field_mask = (1 << n) - 1
    homs = []
    for j, member in enumerate(family.members):
        h = Hom(tuple(((v >> (j * w)) & field_mask).bit_length() - 1 for v in walk))
        if not validate_hom(h, qd, member.as_digraph()):
            raise AssertionError(f"steep-path factor hom {h.map} into member {j} is invalid")
        homs.append(h)
    return SteepPathResult(ell, q, tuple(family.members), tuple(homs))


@verifier("steep-path")
def verify_steep_path(ell: int = 4, consequence_samples: int = 20, seed: int = 20107) -> Outcome:
    """Find the steep path, validate its family homs and span, and check it
    maps into sample digraphs of chromatic number >= 4.  Every hom question
    has the path as its source, so ``tree_hom`` decides it with no budget."""
    _count("consequence_samples", consequence_samples)
    params = {"ell": ell, "consequence_samples": consequence_samples}
    result = find_steep_path(ell)
    q = result.path
    qd = q.as_digraph()
    checks = {
        "span": q.algebraic_length() == ell,
        "family_homs": len(result.factor_homs) == len(result.family)
        and all(
            validate_hom(h, qd, p.as_digraph())
            for h, p in zip(result.factor_homs, result.family)
        ),
        "no_hom_to_shorter_path": tree_hom(qd, path(ell - 1)) is None,
    }
    witnesses: dict = {
        "path": q.dirs,
        "n_arcs": result.n_arcs,
        "checks": checks,
    }
    ok = all(checks.values())

    if consequence_samples > 0:
        targets = [("K_4", complete(4)), ("T_4", tournament(4))]
        rng = random.Random(seed)
        found = 0
        while found < consequence_samples:
            g = random_digraph(rng, 8, 0.55)
            if chromatic_number(g, limit=3).exceeded_limit:
                targets.append((f"random[{found}]", g))
                found += 1
        outcomes = [{"target": name, "hom_found": tree_hom(qd, g) is not None} for name, g in targets]
        ok = ok and all(o["hom_found"] for o in outcomes)
        witnesses["consequence"] = outcomes
    return params, PASS if ok else FAIL, witnesses


@verifier("steep-consequence")
def verify_steep_consequence(result: SteepPathResult, graphs: Sequence[Digraph]) -> Outcome:
    """The steep path maps into every supplied digraph of chromatic number
    >= 4 (lower-chromatic inputs are skipped: the claim says nothing there),
    decided by ``tree_hom``."""
    qd = result.path.as_digraph()
    params = {"ell": result.ell, "graphs": len(graphs)}
    outcomes = []
    ok = True
    for g in graphs:
        chi = chromatic_number(g).chi
        if chi is None or chi < 4:
            outcomes.append({"graph": to_json_dict(g), "skipped": True, "chi": chi})
            continue
        found = tree_hom(qd, g) is not None
        outcomes.append({"graph": to_json_dict(g), "chi": chi, "hom_found": found})
        ok = ok and found
    return params, PASS if ok else FAIL, {"outcomes": outcomes}


# --- multifactor probe ---------------------------------------------------------


@dataclass
class HFunctionResult:
    """h(k) and its table; ``stopped`` when a row ran out of budget after an
    earlier one failed its cross-check, and the table ends before it."""

    k: int
    value: int
    argmin: OrientedPath
    rows: tuple[dict, ...] = field(repr=False)
    stopped: bool = False

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "value": self.value,
            "argmin": self.argmin.dirs,
            "table": list(self.rows),
        }


def h_function(k: int, budget: int = DEFAULT_BUDGET) -> Union[HFunctionResult, _Budget]:
    """Minimum dual chromatic number over the (3k, k-1)-reversal family.

    Every row's chromatic number chi is cross-checked: its colouring passes
    ``check_colouring`` with colours below chi, and a hom decision refuses
    the complete graph of order chi - 1; one that fails leaves the row's
    ``cross_checked`` false, which `verify_h_function` reports as FAIL.
    Returns BUDGET_EXCEEDED when a row's colouring or that decision runs
    out of budget, or, after a failed row, the table up to it, ``stopped``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > MAX_H_K:
        raise SizeLimitExceeded("h_function", k, MAX_H_K)
    family = path_family(3 * k, k - 1)
    rows = []
    for p in family.members:
        dual = tree_dual(p.as_digraph())
        res = chromatic_number(dual, budget=budget)
        # BUDGET_EXCEEDED is falsy, so an exhausted colouring passes through
        down = res and hom_exists(dual, complete(res.chi - 1), budget)
        if down is BUDGET_EXCEEDED:
            if all(row["cross_checked"] for row in rows):
                return BUDGET_EXCEEDED
            break
        cross = check_colouring(dual, res.colouring) and max(res.colouring, default=-1) < res.chi and down is None
        rows.append(
            {
                "path": p.dirs,
                "dual_vertices": dual.n,
                "chi": res.chi,
                "cross_checked": cross,
            }
        )
    i = min(range(len(rows)), key=lambda i: rows[i]["chi"])  # the first least chi
    return HFunctionResult(k, rows[i]["chi"], family.members[i], tuple(rows), len(rows) < len(family))


@verifier("h-function")
def verify_h_function(k: int, expected: Optional[int] = None, budget: int = DEFAULT_BUDGET) -> Outcome:
    params = {"k": k, "expected": expected}
    result = h_function(k, budget)
    if result is BUDGET_EXCEEDED:
        return params, INDETERMINATE, {"budget": budget}
    if result.stopped:
        failures = [row for row in result.rows if not row["cross_checked"]]
        return params, *_stopped(len(result.rows), failures, {"budget": budget})
    ok = all(row["cross_checked"] for row in result.rows)
    ok = ok and result.value <= 3 * k
    if expected is not None:
        ok = ok and result.value == expected
    return params, PASS if ok else FAIL, result.to_json_dict()


# --- tournament adjoint chromatic table ----------------------------------------


@verifier("chick-table")
def verify_chick_table(max_k: int = 3, max_n: int = 8) -> Outcome:
    """chi of the k-tuple adjoint of the n-tournament equals ceil(n/k)."""
    rows = []
    failures = []
    for k in range(1, max_k + 1):
        for n in range(2 * k, max_n + 1):
            res = chromatic_number(interleaved_adjoint(tournament(n), k))
            expected = ceil(n / k)
            rows.append({"n": n, "k": k, "chi": res.chi, "expected": expected})
            if res.chi != expected:
                failures.append(rows[-1])
    params = {"max_k": max_k, "max_n": max_n}
    witnesses = {"table": rows, "failures": failures}
    return params, PASS if not failures else FAIL, witnesses


def floor_sum_colouring(iota: Digraph, k: int) -> tuple[int, ...]:
    """The tuple-average colouring on the adjoint of the 3k-tournament,
    evaluated on 1-based tournament labels."""
    assert iota.labels is not None
    return tuple(sum(c + 1 for c in lab) // k % 3 for lab in iota.labels)


@verifier("chi3k")
def verify_chi3k(k: int) -> Outcome:
    """The 3k-tournament adjoint: embedded 3-tournament, explicit 3-colouring,
    and exact chromatic number 3."""
    params = {"k": k}
    iota = interleaved_adjoint(tournament(3 * k), k)
    colours = floor_sum_colouring(iota, k)
    colouring_ok = check_colouring(iota, colours)

    rank = {lab: i for i, lab in enumerate(iota.labels)}
    triple = [rank[tuple(i - 1 + 3 * j for j in range(k))] for i in (1, 2, 3)]
    embedded = induced(iota, triple) == tournament(3)

    chi = chromatic_number(iota).chi
    verdict = PASS if colouring_ok and embedded and chi == 3 else FAIL
    witnesses = {
        "colouring": list(colours),
        "colouring_proper": colouring_ok,
        "triple": triple,
        "triple_induces_t3": embedded,
        "chi": chi,
    }
    return params, verdict, witnesses


@verifier("yz-both-ways")
def verify_yz(n: int, k: int, budget: int = DEFAULT_BUDGET) -> Outcome:
    """Homomorphisms both ways between the symmetrized adjoint of the
    n-tournament and the n/k circular complete graph."""
    params = {"n": n, "k": k}
    b = b_graph(n, k)
    circ = circular_complete(n, k)
    r = hom_equivalent(b, circ, budget)
    if r.equivalent is None:
        return params, INDETERMINATE, {"budget": budget}
    witnesses = {"equivalent": r.equivalent}
    if r.forward is not None:
        witnesses["forward"] = _hom_json(r.forward)
    if r.backward is not None:
        witnesses["backward"] = _hom_json(r.backward)
    return params, PASS if r.equivalent else FAIL, witnesses


# --- engine self-checks ---------------------------------------------------------


@verifier("oracle-equivalence")
def verify_oracle_equivalence(
    samples: int = 500, max_vertices: int = 4, seed: int = 20110, budget: int = DEFAULT_BUDGET
) -> Outcome:
    """Search engine agrees with exhaustive enumeration on random pairs."""
    params = {"samples": samples, "max_vertices": max_vertices}
    _count("samples", samples)
    rng = random.Random(seed)
    failures = []
    for i in range(samples):
        g = random_digraph(rng, rng.randint(0, max_vertices), rng.uniform(0.15, 0.8), loop_p=0.1)
        h = random_digraph(rng, rng.randint(0, max_vertices), rng.uniform(0.15, 0.8), loop_p=0.1)
        fast = hom_exists(g, h, budget)
        if fast is BUDGET_EXCEEDED:
            return params, *_stopped(i, failures, {"budget": budget})
        slow = brute_force_hom(g, h)
        if (fast is not None) != (slow is not None):
            failures.append({"index": i, "g": to_json_dict(g), "h": to_json_dict(h)})
        elif fast is not None and not validate_hom(fast, g, h):
            failures.append({"index": i, "g": to_json_dict(g), "h": to_json_dict(h), "bad_witness": True})
    witnesses = {"checked": samples, "failures": failures}
    return params, PASS if not failures else FAIL, witnesses


@verifier("width1-completeness")
def verify_width1_completeness(
    max_target_n: int = 6,
    max_target_k: int = 2,
    random_sources: int = 150,
    max_source_vertices: int = 6,
    seed: int = 20111,
    budget: int = DEFAULT_BUDGET,
) -> Outcome:
    """Arc consistency alone decides hom existence into tournament adjoints.

    Sources: every digraph with <= 2 vertices plus a seeded random sample up
    to max_source_vertices.  Ground truth is the complete backtracking search
    where arc consistency leaves every domain non-empty (a wipeout already
    proves there is no hom), re-confirmed by plain enumeration on every pair
    whose map space is at most WIDTH1_BRUTE_CAP.
    """
    params = {
        "max_target_n": max_target_n,
        "max_target_k": max_target_k,
        "random_sources": random_sources,
        "max_source_vertices": max_source_vertices,
    }
    _count("random_sources", random_sources)
    rng = random.Random(seed)
    sources = list(all_digraphs(2))
    for _ in range(random_sources):
        n = rng.randint(3, max_source_vertices)
        sources.append(random_digraph(rng, n, rng.uniform(0.1, 0.6), loop_p=0.05))
    targets = [
        interleaved_adjoint(tournament(n), k)
        for k in range(1, max_target_k + 1)
        for n in range(1, max_target_n + 1)
    ]
    failures = []
    checked = 0
    for target in targets:
        for g in sources:
            ac_says_yes = arc_consistency(g, target) is not None
            truth = hom_exists(g, target, budget) if ac_says_yes else None
            if truth is BUDGET_EXCEEDED:
                return params, *_stopped(checked, failures, {"budget": budget})
            checked += 1
            agree = ac_says_yes == (truth is not None)
            if agree and g.n > 0 and target.n > 0 and target.n**g.n <= WIDTH1_BRUTE_CAP:
                slow = brute_force_hom(g, target)
                agree = ac_says_yes == (slow is not None)
            if not agree:
                failures.append({"g": to_json_dict(g), "target": target.name})
    witnesses = {"checked": checked, "failures": failures}
    return params, PASS if not failures else FAIL, witnesses


# --- batch runner ---------------------------------------------------------------

#: (job id, claim, kwargs).  Job ids are unique; reports are re-tagged with
#: them so batch output is mergeable by claim.
QUICK_PROFILE: list[tuple[str, str, dict]] = [
    ("chick-table", "chick-table", {"max_k": 2, "max_n": 6}),
    ("chi3k[k=1]", "chi3k", {"k": 1}),
    ("chi3k[k=2]", "chi3k", {"k": 2}),
    ("gencol-sweep", "gencol-sweep", {"samples": 20}),
    ("gencol-tightness", "gencol-tightness", {}),
    ("adjunction-sweep", "adjunction-sweep", {"samples": 40}),
    ("finobs-exhaustive[n=3,k=2]", "finobs-exhaustive", {"n": 3, "k": 2, "max_vertices": 2}),
    ("duality-tree-exhaustive", "duality-tree-exhaustive", {"max_tree_arcs": 3, "max_source_vertices": 2}),
    ("inadprod[n=3,k=1]", "inadprod", {"n": 3, "k": 1}),
    ("inadprod[n=4,k=2]", "inadprod", {"n": 4, "k": 2}),
    ("mulpath-sweep", "mulpath-sweep", {"samples": 20}),
    ("hompath-sweep", "hompath-sweep", {"samples": 20}),
    ("yz[n=4,k=2]", "yz-both-ways", {"n": 4, "k": 2}),
    ("yz[n=5,k=2]", "yz-both-ways", {"n": 5, "k": 2}),
    ("steep-path[ell=3]", "steep-path", {"ell": 3, "consequence_samples": 3}),
    ("h-function[k=1]", "h-function", {"k": 1, "expected": 3}),
    ("oracle-equivalence", "oracle-equivalence", {"samples": 100}),
    ("width1-completeness", "width1-completeness", {"random_sources": 30, "max_source_vertices": 4}),
]

FULL_PROFILE: list[tuple[str, str, dict]] = [
    ("chick-table", "chick-table", {"max_k": 3, "max_n": 8}),
    ("chi3k[k=1]", "chi3k", {"k": 1}),
    ("chi3k[k=2]", "chi3k", {"k": 2}),
    ("chi3k[k=3]", "chi3k", {"k": 3}),
    ("gencol-sweep", "gencol-sweep", {"samples": 100}),
    ("gencol-tightness", "gencol-tightness", {}),
    ("adjunction-sweep", "adjunction-sweep", {"samples": 200}),
    ("finobs-exhaustive[n=3,k=2]", "finobs-exhaustive", {"n": 3, "k": 2}),
    ("finobs-exhaustive[n=4,k=2]", "finobs-exhaustive", {"n": 4, "k": 2}),
    ("duality-tree-exhaustive", "duality-tree-exhaustive", {}),
    ("inadprod[n=3,k=1]", "inadprod", {"n": 3, "k": 1}),
    ("inadprod[n=4,k=2]", "inadprod", {"n": 4, "k": 2}),
    ("mulpath-sweep", "mulpath-sweep", {"samples": 50}),
    ("hompath-sweep", "hompath-sweep", {"samples": 50}),
    ("yz[n=4,k=2]", "yz-both-ways", {"n": 4, "k": 2}),
    ("yz[n=5,k=2]", "yz-both-ways", {"n": 5, "k": 2}),
    ("yz[n=6,k=2]", "yz-both-ways", {"n": 6, "k": 2}),
    ("yz[n=6,k=3]", "yz-both-ways", {"n": 6, "k": 3}),
    ("steep-path[ell=4]", "steep-path", {"ell": 4, "consequence_samples": 20}),
    ("h-function[k=1]", "h-function", {"k": 1, "expected": 3}),
    ("h-function[k=2]", "h-function", {"k": 2}),
    ("oracle-equivalence", "oracle-equivalence", {"samples": 500}),
    ("width1-completeness", "width1-completeness", {}),
]

PROFILES = {"quick": QUICK_PROFILE, "full": FULL_PROFILE}


def run_job(spec: tuple[str, str, dict]) -> VerifyReport:
    """Run one profile job; the report is re-tagged with the job id.

    A size guard makes the job INDETERMINATE; any other exception makes it
    ERROR, so one crashed job does not stop the rest of a profile.
    """
    job_id, claim, kwargs = spec
    try:
        report = REGISTRY[claim](**kwargs)
    except SizeLimitExceeded as e:
        return VerifyReport(job_id, dict(kwargs), INDETERMINATE, {"guard": str(e)})
    except Exception as e:
        return VerifyReport(job_id, dict(kwargs), ERROR, {"error": f"{type(e).__name__}: {e}"})
    return replace(report, claim=job_id)


def run_profile(profile: str) -> list[VerifyReport]:
    """Run a whole profile in process, its reports in profile order."""
    return [run_job(spec) for spec in PROFILES[profile]]

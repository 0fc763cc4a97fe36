import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from digraphlab import (
    BUDGET_EXCEEDED,
    Hom,
    arc_consistency,
    brute_force_hom,
    circular_complete,
    complete,
    hom_equivalent,
    hom_exists,
    make_digraph,
    path,
    symmetrize,
    tournament,
    tree_dual,
    tree_hom,
    validate_hom,
)
from digraphlab import homs, verify
from digraphlab.constructions import b_graph
from digraphlab.core import SizeLimitExceeded
from digraphlab.paths import OrientedPath
from digraphlab.verify import all_digraphs, random_digraph


def test_arc_consistency_wipes_middle_vertex():
    # the 2-arc forward path cannot map to the single arc
    assert arc_consistency(path(2), tournament(2)) is None


def test_arc_consistency_no_arcs_keeps_domains():
    g = make_digraph(3, [])
    reduced = arc_consistency(g, tournament(3))
    assert reduced is not None
    assert reduced == [0b111] * 3


def test_arc_consistency_p4_t3():
    assert arc_consistency(path(4), tournament(3)) is None


def test_arc_consistency_reduces_but_keeps_solution():
    reduced = arc_consistency(path(3), tournament(4))
    assert reduced is not None
    # every domain value must still be part of some hom: the only hom is i -> i
    assert reduced == [1, 2, 4, 8]


def test_hom_identity_colouring_tournament():
    for n in range(1, 6):
        w = hom_exists(tournament(n), complete(n))
        assert isinstance(w, Hom) and validate_hom(w, tournament(n), complete(n))


def test_hom_k3_to_k2_none():
    assert hom_exists(complete(3), complete(2)) is None


def test_paths_into_tournaments():
    for n in range(1, 6):
        assert isinstance(hom_exists(path(n), tournament(n + 1)), Hom)
        assert hom_exists(path(n + 1), tournament(n + 1)) is None


def test_brute_force_p2_t2():
    assert brute_force_hom(path(2), tournament(2)) is None


def test_brute_force_k1_to_anything():
    w = brute_force_hom(complete(1), tournament(3))
    assert w is not None and w.map == (0,)


def test_brute_force_guard():
    with pytest.raises(SizeLimitExceeded):
        brute_force_hom(complete(9), complete(9))


def _reference_enumeration(g, h):
    """First map in itertools.product order that keeps every arc."""
    for assignment in itertools.product(range(h.n), repeat=g.n):
        if all((assignment[u], assignment[v]) in h.arc_set for u, v in g.arcs):
            return Hom(assignment, g.name, h.name)
    return None


def test_brute_force_is_the_least_hom_of_plain_enumeration():
    rng = random.Random(31)
    for _ in range(600):
        g = random_digraph(rng, rng.randint(0, 5), rng.uniform(0.05, 0.8), loop_p=rng.choice([0.0, 0.2]))
        h = random_digraph(rng, rng.randint(0, 4), rng.uniform(0.1, 0.9), loop_p=rng.choice([0.0, 0.3]))
        assert brute_force_hom(g, h) == _reference_enumeration(g, h), (g.arcs, h.arcs)


def test_brute_force_answers_are_pinned():
    """The oracle's least homs (or None) over 500 seeded pairs, loops and
    0-vertex sides among them, as the oracle gave them before its
    candidate masks were built from per-vertex constraint tables."""
    import hashlib
    import json

    rng = random.Random(67)
    results = []
    for _ in range(500):
        g = random_digraph(rng, rng.randint(0, 6), rng.uniform(0.05, 0.8), loop_p=rng.choice([0.0, 0.15]))
        h = random_digraph(rng, rng.randint(0, 5), rng.uniform(0.1, 0.9), loop_p=rng.choice([0.0, 0.3]))
        w = brute_force_hom(g, h)
        results.append(None if w is None else list(w.map))
    assert sum(r is None for r in results) > 100 and sum(r == [] for r in results) > 20
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == "2dfd4eb356ee2375da8d3785e13e891ab450038c4f5bc526cbbe4b4a3fe99b77"


def test_brute_force_needs_no_recursion():
    looped_vertex = make_digraph(1, [(0, 0)])
    w = brute_force_hom(path(5000), looped_vertex)
    assert sys.getrecursionlimit() < 5000
    assert isinstance(w, Hom) and w.map == (0,) * 5001


def _directed_cycle(n):
    return make_digraph(n, [(i, (i + 1) % n) for i in range(n)])


def test_budget_exceeded_is_reported():
    # winding-number mismatch: refutation needs one branch per start vertex
    r = hom_exists(_directed_cycle(7), _directed_cycle(5), budget=2)
    assert r is BUDGET_EXCEEDED
    assert not r
    assert repr(r) == "BUDGET_EXCEEDED"
    assert pickle.loads(pickle.dumps(r)) is BUDGET_EXCEEDED
    assert hom_exists(_directed_cycle(7), _directed_cycle(5)) is None


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        hom_exists(path(1), path(1), budget=0)


def test_empty_source_always_maps():
    w = hom_exists(make_digraph(0, []), tournament(3))
    assert isinstance(w, Hom) and w.map == ()


def test_empty_target_never_receives():
    assert hom_exists(path(1), make_digraph(0, [])) is None


def test_loop_source_needs_loop_target():
    loop = make_digraph(1, [(0, 0)])
    assert hom_exists(loop, complete(3)) is None
    w = hom_exists(loop, make_digraph(2, [(0, 0), (0, 1)]))
    assert isinstance(w, Hom) and w.map == (0,)
    assert brute_force_hom(loop, complete(3)) is None


def test_source_loop_into_loopless_target_wipes_out_before_the_search():
    g = make_digraph(3, [(0, 0), (0, 1), (1, 2)])
    assert hom_exists(g, complete(3), budget=1) is None
    assert arc_consistency(g, complete(3)) is None


def test_source_loop_maps_onto_the_one_looped_target_vertex():
    g = make_digraph(3, [(0, 1), (1, 1), (1, 2)])
    h = make_digraph(3, [(0, 1), (1, 2), (2, 0), (2, 2)])
    w = hom_exists(g, h)
    assert isinstance(w, Hom) and validate_hom(w, g, h) and w.map[1] == 2


def test_every_small_source_agrees_with_the_oracle():
    targets = [
        make_digraph(0, []),
        complete(2),
        tournament(3),
        circular_complete(5, 2),
        make_digraph(1, [(0, 0)]),
        make_digraph(3, [(0, 1), (1, 2), (2, 0), (2, 2)]),
        make_digraph(3, [(0, 0), (0, 1), (1, 2), (2, 1)]),
    ]
    sources = list(all_digraphs(3))
    assert len(sources) == 531
    for g in sources:
        for h in targets:
            expected = brute_force_hom(g, h) is not None
            w = hom_exists(g, h)
            assert (w is not None) == expected, (g.arcs, h.arcs)
            assert w is None or validate_hom(w, g, h)
            if g.tree_order is not None:
                w = tree_hom(g, h)
                assert (w is not None) == expected, (g.arcs, h.arcs)
                assert w is None or validate_hom(w, g, h)


WITNESS_RECHECKS = {
    "hom_exists": lambda: homs.hom_exists(path(2), tournament(3)),
    "tree_hom": lambda: homs.tree_hom(path(2), tournament(3)),
    "find_steep_path": lambda: verify.find_steep_path(3),
}


@pytest.mark.parametrize("name", sorted(WITNESS_RECHECKS))
def test_an_invalid_witness_raises(monkeypatch, name):
    monkeypatch.setattr(homs, "validate_hom", lambda *args: False)
    monkeypatch.setattr(verify, "validate_hom", lambda *args: False)
    with pytest.raises(AssertionError):
        WITNESS_RECHECKS[name]()


_RECHECKS_UNDER_O = """
from digraphlab import homs, path, tournament, verify
if __debug__:
    raise SystemExit("not running under -O")
homs.validate_hom = verify.validate_hom = lambda *args: False
for call in (
    lambda: homs.hom_exists(path(2), tournament(3)),
    lambda: homs.tree_hom(path(2), tournament(3)),
    lambda: verify.find_steep_path(3),
):
    try:
        call()
    except AssertionError:
        continue
    raise SystemExit("an invalid witness was returned")
"""


def test_invalid_witnesses_raise_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(homs.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _RECHECKS_UNDER_O],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_hom_equivalent_reflexive():
    g = tournament(4)
    r = hom_equivalent(g, g)
    assert r.equivalent is True


def test_hom_equivalent_dual_p3_t3():
    assert hom_equivalent(tree_dual(path(3)), tournament(3)).equivalent is True


def test_hom_equivalent_b52_circular():
    assert hom_equivalent(b_graph(5, 2), circular_complete(5, 2)).equivalent is True


def test_hom_equivalent_false_direction():
    r = hom_equivalent(complete(3), complete(2))
    assert r.equivalent is False


def test_hom_equivalent_budget_indeterminate():
    r = hom_equivalent(_directed_cycle(7), _directed_cycle(5), budget=2)
    assert r.equivalent is None


def test_engine_matches_oracle_on_random_pairs():
    rng = random.Random(23)
    for _ in range(150):
        g = random_digraph(rng, rng.randint(0, 4), rng.uniform(0.2, 0.8), loop_p=0.1)
        h = random_digraph(rng, rng.randint(0, 4), rng.uniform(0.2, 0.8), loop_p=0.1)
        fast = hom_exists(g, h)
        slow = brute_force_hom(g, h)
        assert (fast is not None) == (slow is not None)
        if isinstance(fast, Hom):
            assert validate_hom(fast, g, h)


def _cold(d):
    """A fresh Digraph object equal to d, none of its cached data built."""
    return d.rename(d.name)


def _budget_boundary(g, h):
    """Least budget that answers, and the answer, each try on cold copies."""
    budget = 1
    while (r := hom_exists(_cold(g), _cold(h), budget)) is BUDGET_EXCEEDED:
        budget += 1
    return budget, r


def test_warm_caches_change_no_answer():
    # one source meets many targets and one target many sources (some
    # digraphs play both parts), so every search after the first runs on
    # data cached by earlier ones; arc_consistency shares the same caches
    rng = random.Random(41)
    sources = [
        random_digraph(rng, rng.randint(2, 7), rng.uniform(0.15, 0.5), loop_p=0.1)
        for _ in range(10)
    ]
    targets = [
        random_digraph(rng, rng.randint(2, 5), rng.uniform(0.3, 0.7), loop_p=0.15)
        for _ in range(6)
    ]
    sources += [make_digraph(0, []), tournament(4), symmetrize(path(4))]
    targets += [make_digraph(0, []), complete(2), complete(3), sources[0], sources[1]]
    cold = {(i, j): _budget_boundary(g, h) for i, g in enumerate(sources) for j, h in enumerate(targets)}
    assert sum(nodes > 1 for nodes, _ in cold.values()) > 50
    for i, g in enumerate(sources):
        for j, h in enumerate(targets):
            if (i + j) % 3 == 0:
                ac = arc_consistency(g, h)
                if ac is None:
                    assert brute_force_hom(g, h) is None
            w = hom_exists(g, h)
            assert (w is not None) == (brute_force_hom(g, h) is not None)
            assert w == cold[i, j][1]
    assert all(h.supports for h in targets if h.n)
    for (i, j), (nodes, expected) in cold.items():
        g, h = sources[i], targets[j]
        assert hom_exists(g, h, budget=nodes) == expected
        if nodes > 1:
            assert hom_exists(g, h, budget=nodes - 1) is BUDGET_EXCEEDED


def test_more_arcs_never_creates_homs():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 4)
        g = random_digraph(rng, n, 0.3)
        extra = [(rng.randrange(n), rng.randrange(n)) for _ in range(2)]
        extra = [(u, v) for u, v in extra if u != v]
        bigger = make_digraph(n, list(g.arcs) + extra)
        h = random_digraph(rng, rng.randint(1, 4), 0.5)
        if isinstance(hom_exists(bigger, h), Hom):
            assert isinstance(hom_exists(g, h), Hom)


def test_width1_targets_decided_by_arc_consistency_alone():
    # no backtracking needed: filtering equals full search on tournament adjoints
    from digraphlab import interleaved_adjoint

    rng = random.Random(31)
    targets = [interleaved_adjoint(tournament(n), k) for n in (2, 3, 4) for k in (1, 2)]
    for _ in range(40):
        g = random_digraph(rng, rng.randint(1, 4), rng.uniform(0.2, 0.7))
        for target in targets:
            ac = arc_consistency(g, target) is not None
            truth = hom_exists(g, target) is not None
            assert ac == truth


def test_deterministic_witness():
    a = hom_exists(path(3), tournament(5))
    b = hom_exists(path(3), tournament(5))
    assert isinstance(a, Hom) and a.map == b.map


def test_symmetrize_needs_more_colours():
    # chromatic-style instance through the hom engine
    assert hom_exists(symmetrize(tournament(3)), complete(2)) is None
    assert isinstance(hom_exists(symmetrize(tournament(3)), complete(3)), Hom)


def _oriented_graph(seed, n, m):
    """m distinct random edges on n vertices, each given a random direction."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return make_digraph(n, [(u, v) if rng.random() < 0.5 else (v, u) for u, v in sorted(edges)])


def _oriented_tree(seed, n):
    """Random recursive tree: vertex i hangs off a uniform earlier vertex."""
    rng = random.Random(seed)
    arcs = []
    for i in range(1, n):
        j = rng.randrange(i)
        arcs.append((i, j) if rng.random() < 0.5 else (j, i))
    return make_digraph(n, arcs)


def _digits(text):
    return tuple(map(int, text))


def _h3_dual(dirs):
    return tree_dual(OrientedPath.parse(dirs).as_digraph())


# Node counts (values tried) and witnesses of the search tree: a change to the
# variable or value order, or to the propagation at each node, moves them.
PINNED_SEARCHES = {
    # 10 of the 31 values tried wipe out under arc consistency
    "sparse-into-K3": (
        lambda: (_oriented_graph(39, 60, 138), complete(3)),
        31,
        (2, 1, 2, 2, 0, 2, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 2, 2, 1, 0, 2, 0, 1, 0, 0, 0, 2, 0, 1,
         2, 0, 1, 1, 2, 2, 1, 0, 0, 0, 0, 1, 2, 2, 1, 1, 2, 2, 1, 2, 0, 2, 0, 0, 1, 0, 0, 1, 2, 2),
    ),
    "tree-into-C5": (
        lambda: (_oriented_tree(0, 40), circular_complete(5, 2)),
        40,
        (0, 2, 0, 2, 2, 2, 0, 2, 0, 0, 2, 2, 0, 0, 0, 2, 2, 2, 0, 0, 0, 2, 2, 0, 2, 0, 0, 2, 2, 2,
         2, 2, 2, 0, 2, 0, 0, 2, 0, 0),
    ),
    "oriented-into-K3": (
        lambda: (_oriented_graph(4, 14, 15), complete(3)),
        12,
        (1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0),
    ),
    "oriented-into-C5": (
        lambda: (_oriented_graph(4, 14, 15), circular_complete(5, 2)),
        14,
        (2, 0, 2, 0, 2, 0, 0, 2, 2, 0, 2, 2, 0, 0),
    ),
    "C7-into-C5-refuted": (lambda: (_directed_cycle(7), _directed_cycle(5)), 5, None),
    "oriented-into-K3-refuted": (lambda: (_oriented_graph(8, 40, 95), complete(3)), 14, None),
    "oriented-into-K4": (
        lambda: (_oriented_graph(0, 18, 40), complete(4)),
        9,
        _digits("021030120100310132"),
    ),
    # the path is coloured by propagation; each colour of the 5-cycle's
    # first vertex wipes out
    "path-and-C5-into-K2-refuted": (
        lambda: (make_digraph(9, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 4)]),
                 complete(2)),
        2,
        None,
    ),
    # the greedy clique sits at ranks 1, 3 and 8, so the clamp takes those
    # three ranks and then rank 0
    "oriented-into-K5-clamp-off-the-degree-prefix": (
        lambda: (_oriented_graph(8, 12, 16), complete(5)),
        9,
        _digits("011001011121"),
    ),
    "matching-into-K2": (
        lambda: (make_digraph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (6, 7)]), complete(2)),
        2,
        _digits("10100101"),
    ),
    "isolated-into-K1": (lambda: (make_digraph(3, []), complete(1)), 1, (0, 0, 0)),
    "arc-into-K1-refuted": (lambda: (make_digraph(3, [(0, 2)]), complete(1)), 1, None),
    # an h(3) dual whose chromatic number 5 exceeds its greedy clique
    "h3-dual-into-K5": (
        lambda: (_h3_dual("++++-++++"), complete(5)),
        232,
        _digits(
            "0000000010101010000000001010101000000000101010100000000010101010"
            "0000000010101010000000001010101000000000101010100000000010101010"
            "1111424211114242000000001010404011112222111132220000000010103020"
            "2222222242224222000000001010402033333333433333330000000010103020"
        ),
    ),
    "h3-dual-into-K4-refuted": (lambda: (_h3_dual("++++-++++"), complete(4)), 1, None),
}


@pytest.mark.parametrize("case", sorted(PINNED_SEARCHES))
def test_search_tree_is_pinned_at_the_budget_boundary(case):
    build, nodes, expected = PINNED_SEARCHES[case]
    g, h = build()
    w = hom_exists(g, h, budget=nodes)
    if expected is None:
        assert w is None
    else:
        assert w.map == expected
    if nodes > 1:  # a budget of 1 is the least there is
        assert hom_exists(g, h, budget=nodes - 1) is BUDGET_EXCEEDED


def test_deep_tree_needs_no_recursion():
    # a search that recursed once per source vertex hit the default limit here
    limit = sys.getrecursionlimit()
    g = _oriented_tree(1300, 1300)
    c5 = circular_complete(5, 2)
    w = hom_exists(g, c5)
    assert isinstance(w, Hom) and validate_hom(w, g, c5)
    assert sys.getrecursionlimit() == limit


def _random_oriented_tree(rng, n):
    """Vertex i hangs off a uniform earlier vertex or, in three trees out
    of ten, off i - 1 (a deep path); each arc gets a random direction, and
    the vertex ids are shuffled."""
    deep = rng.random() < 0.3
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = []
    for i in range(1, n):
        j = i - 1 if deep else rng.randrange(i)
        arcs.append((perm[i], perm[j]) if rng.random() < 0.5 else (perm[j], perm[i]))
    return make_digraph(n, arcs)


def _tree_targets(rng):
    return [
        random_digraph(rng, rng.randint(1, 5), rng.uniform(0.1, 0.7), loop_p=rng.choice([0.0, 0.1]))
        for _ in range(6)
    ] + [make_digraph(0, []), complete(1), complete(2), complete(3), circular_complete(5, 2)]


def _check_tree_hom(t, h, expected_exists):
    w = tree_hom(t, h)
    assert (w is not None) == expected_exists, (t.arcs, h.arcs)
    if w is not None:
        assert isinstance(w, Hom) and validate_hom(w, t, h)


def test_tree_hom_matches_the_oracle_on_small_trees():
    rng = random.Random(53)
    for _ in range(120):
        t = _random_oriented_tree(rng, rng.randint(1, 8))
        for h in _tree_targets(rng):
            _check_tree_hom(t, h, brute_force_hom(t, h) is not None)


def test_tree_hom_matches_the_search_on_large_trees():
    limit = sys.getrecursionlimit()
    rng = random.Random(59)
    for _ in range(25):
        t = _random_oriented_tree(rng, rng.randint(9, 300))
        for h in _tree_targets(rng):
            _check_tree_hom(t, h, hom_exists(t, h) is not None)
    assert sys.getrecursionlimit() == limit


def _tree_shape(rng, n):
    """A star, a path or a random tree on n vertices, arcs randomly
    directed and vertex ids shuffled."""
    shape = rng.choice(["star", "path", "random"])
    if shape == "random":
        return _random_oriented_tree(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = []
    for i in range(1, n):
        j = 0 if shape == "star" else i - 1
        arcs.append((perm[i], perm[j]) if rng.random() < 0.5 else (perm[j], perm[i]))
    return make_digraph(n, arcs)


def _mac(t, h, budget):
    """The general search on t: the AC-3 fixpoint, then MAC."""
    doms = [(1 << h.n) - 1] * t.n
    if not homs._fixpoint(t, h, doms):
        return None
    return homs._mac_search(t, h, doms, budget)


def test_tree_path_is_mac_on_trees():
    """hom_exists searches oriented-tree sources without MAC's trail; its
    domains, witnesses, Nones and budget boundaries are MAC's."""
    rng = random.Random(71)
    cases = 0
    for _ in range(150):
        t = _tree_shape(rng, rng.choice([1, 2, rng.randint(3, 60)]))
        assert t.tree_order is not None
        for _ in range(4):
            h = random_digraph(rng, rng.randint(1, 6), rng.uniform(0.1, 0.7), loop_p=rng.choice([0.0, 0.2]))
            h = make_digraph(h.n + rng.randint(0, 2), h.arcs)  # isolated vertices
            if homs._is_complete_symmetric(h):
                continue  # K_c has a search of its own
            cases += 1
            assert homs._tree_consistency(t, h) == arc_consistency(t, h), (t.arcs, h.arcs)
            w = hom_exists(t, h)
            expected = _mac(t, h, homs.DEFAULT_BUDGET)
            assert (None if w is None else w.map) == expected, (t.arcs, h.arcs)
            budget = rng.randint(1, t.n + 1)
            w = hom_exists(t, h, budget)
            expected = _mac(t, h, budget)
            assert (w if w is None or w is BUDGET_EXCEEDED else w.map) == expected, (t.arcs, h.arcs, budget)
    assert cases > 500


@pytest.mark.parametrize(
    "g",
    [
        make_digraph(0, []),
        make_digraph(1, [(0, 0)]),
        make_digraph(2, [(0, 1), (1, 0)]),
        make_digraph(3, [(0, 1), (1, 0)]),
        make_digraph(4, [(0, 1), (2, 3)]),
        make_digraph(4, [(0, 1), (1, 2), (2, 0)]),
        make_digraph(3, [(0, 1), (1, 2), (2, 0)]),
        make_digraph(2, [(1, 1)]),
    ],
    ids=["empty", "loop", "2-cycle", "2-cycle-and-isolated", "disconnected", "cycle-and-isolated",
         "cycle", "loop-and-isolated"],
)
def test_tree_hom_refuses_non_trees(g):
    with pytest.raises(ValueError):
        tree_hom(g, complete(3))


def _least_budget(g, h):
    """The least budget at which hom_exists answers, and the answer: the
    search's node count (1 when no value is tried), by bisection."""
    hi = 1
    while (r := hom_exists(g, h, hi)) is BUDGET_EXCEEDED:
        hi *= 2
    lo = hi // 2  # exceeded at lo, answered at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (m := hom_exists(g, h, mid)) is BUDGET_EXCEEDED:
            lo = mid
        else:
            hi, r = mid, m
    return hi, r


def _threshold_graph(rng, n, degree):
    """round(n * degree / 2) distinct random edges, both arcs of each."""
    edges = set()
    while len(edges) < round(n * degree / 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return make_digraph(n, [a for u, v in edges for a in ((u, v), (v, u))])


def test_complete_target_decisions_are_pinned():
    """Node counts and answers of seeded searches into K_c: sparse oriented
    graphs into K3, graphs at the 3-colourability threshold into K3 and K4,
    and tiny digraphs with loops or isolated vertices into K_0 ... K_5.  The
    node count is the budget boundary, so every BUDGET_EXCEEDED position is
    pinned too."""
    import hashlib
    import json

    rng = random.Random(61)
    cases = [
        (_oriented_graph(rng.randrange(10**6), n, round(n * degree / 2)), 3)
        for n in (60, 100, 150)
        for degree in (4.0, 4.3, 4.6)
    ]
    for n in (30, 45, 60):
        g = _threshold_graph(rng, n, 4.7)
        cases += [(g, 3), (g, 4)]
    for _ in range(60):
        g = random_digraph(rng, rng.randint(0, 6), rng.uniform(0.05, 0.5), loop_p=rng.choice([0.0, 0.1]))
        cases += [(g, c) for c in range(6)]
    results = []
    for g, c in cases:
        nodes, r = _least_budget(g, complete(c))
        results.append([nodes, None if r is None else list(r.map)])
    assert sum(nodes > 1 for nodes, _ in results) > 60
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == "aab711c1dcb52e1a15372b9466ce448b2fc493e11ce911a67a27cff5957f8e1f"

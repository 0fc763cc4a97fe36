import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from digraphlab import (
    BUDGET_EXCEEDED,
    Hom,
    arc_graph,
    check_colouring,
    chromatic_number,
    circular_complete,
    complete,
    hom_exists,
    interleaved_adjoint,
    make_digraph,
    path,
    symmetrize,
    tournament,
    tree_dual,
    validate_hom,
)
from digraphlab.verify import floor_sum_colouring, random_digraph


def test_chi_complete():
    for n in range(1, 9):
        res = chromatic_number(complete(n))
        assert res.chi == n
        assert res.lower_bound_cert is not None and len(res.lower_bound_cert) == n


def test_chi_degenerate_conventions():
    assert chromatic_number(make_digraph(0, [])).chi == 0
    assert chromatic_number(make_digraph(5, [])).chi == 1


def test_chi_rejects_loops():
    with pytest.raises(ValueError):
        chromatic_number(make_digraph(1, [(0, 0)]))


def test_chi_limit(monkeypatch):
    """A limit below the clique size is reported before any k-decision."""
    from digraphlab import coloring

    def refuse(*args):
        raise AssertionError("_decide_colourable called")

    monkeypatch.setattr(coloring, "_decide_colourable", refuse)
    res = chromatic_number(complete(5), limit=3)
    assert res.chi is None and res.exceeded_limit


@given(st.integers(1, 30), st.floats(0.0, 1.0), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_decision_at_the_greedy_colour_count_replays_the_greedy_descent(n, p, seed):
    """With c the colours DSATUR's k = n descent ends with, the k = c decision
    never meets a vertex with every colour blocked, so it makes the same
    choices: the same colouring after the same number of assignments."""
    from digraphlab.coloring import _decide_colourable

    g = random_digraph(random.Random(seed), n, p)
    greedy, spent = _decide_colourable(g, g.n, float("inf"))
    assert _decide_colourable(g, max(greedy) + 1, float("inf")) == (greedy, spent)


def test_colouring_witness_is_proper_and_tight():
    rng = random.Random(41)
    for _ in range(25):
        g = random_digraph(rng, rng.randint(1, 6), 0.5)
        res = chromatic_number(g)
        assert check_colouring(g, res.colouring)
        assert len(set(res.colouring)) == res.chi


def test_check_colouring_constant_on_arcless():
    assert check_colouring(make_digraph(4, []), [0, 0, 0, 0])


def test_check_colouring_fails_on_loop():
    assert not check_colouring(make_digraph(1, [(0, 0)]), [0])


def test_check_colouring_length_mismatch():
    with pytest.raises(ValueError):
        check_colouring(path(1), [0])


def test_floor_sum_colouring_all_k():
    for k in (1, 2, 3):
        iota = interleaved_adjoint(tournament(3 * k), k)
        assert check_colouring(iota, floor_sum_colouring(iota, k))


def test_two_colours_never_enough_for_adjoint_of_t6():
    iota = interleaved_adjoint(tournament(6), 2)
    rng = random.Random(43)
    for _ in range(50):
        colours = [rng.randint(0, 1) for _ in range(iota.n)]
        assert not check_colouring(iota, colours)
    assert chromatic_number(iota).chi == 3


def test_chi_equals_min_hom_into_complete():
    rng = random.Random(47)
    graphs = [tournament(5), symmetrize(path(4)), tree_dual(path(3)), arc_graph(complete(3))]
    graphs += [random_digraph(rng, rng.randint(1, 6), 0.5) for _ in range(10)]
    for g in graphs:
        chi = chromatic_number(g).chi
        sym = symmetrize(g)
        by_hom = next(n for n in range(1, g.n + 1) if isinstance(hom_exists(sym, complete(n)), Hom))
        assert chi == by_hom


def test_sandwich_on_random_graphs():
    from digraphlab import arc_graph_iter

    rng = random.Random(53)
    for _ in range(15):
        g = random_digraph(rng, rng.randint(1, 5), 0.4)
        lo = chromatic_number(arc_graph_iter(g, 2)).chi
        mid = chromatic_number(interleaved_adjoint(g, 2)).chi
        hi = chromatic_number(g).chi
        assert lo <= mid <= hi


def test_symmetric_graphs_keep_chi_under_adjoint():
    rng = random.Random(59)
    for _ in range(10):
        g = symmetrize(random_digraph(rng, rng.randint(1, 4), 0.5))
        for k in (1, 2, 3):
            assert chromatic_number(interleaved_adjoint(g, k)).chi == chromatic_number(g).chi


def test_odd_cycle_needs_three():
    c5 = symmetrize(make_digraph(5, [(i, (i + 1) % 5) for i in range(5)]))
    res = chromatic_number(c5)
    assert res.chi == 3 and res.lower_bound_cert is None


def test_long_odd_cycle_leaves_recursion_limit_unchanged():
    n = 1501
    cycle = make_digraph(n, [(i, (i + 1) % n) for i in range(n)])
    before = sys.getrecursionlimit()
    assert chromatic_number(cycle).chi == 3
    assert sys.getrecursionlimit() == before


def _pinned_colouring_inputs():
    """Seeded loopless digraphs (n <= 40), the odd cycles C_5 ... C_301 and
    the chick-table adjoints of the tournaments."""
    rng = random.Random(20260)
    graphs = [random_digraph(rng, rng.randint(1, 40), rng.uniform(0.02, 0.25)) for _ in range(300)]
    graphs += [make_digraph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(5, 302, 2)]
    graphs += [
        interleaved_adjoint(tournament(n), k) for k in range(1, 4) for n in range(2 * k, 9)
    ]
    return graphs


def test_chromatic_number_outputs_are_pinned():
    import hashlib
    import json

    results = []
    for g in _pinned_colouring_inputs():
        res = chromatic_number(g)
        results.append([res.chi, res.colouring, res.lower_bound_cert])
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == "880d4a48728c167e7fc6537deaf01cfb86ba221b4bf4845e39ea15a27a89b1fa"


def _threshold_graphs(count, n, seed, degree=4.7):
    """Seeded undirected G(n, m) graphs with m = round(n * degree / 2) edges,
    near the 3-colourability threshold where the k = 3 decision backtracks."""
    rng = random.Random(seed)
    m = round(n * degree / 2)
    graphs = []
    for _ in range(count):
        edges = set()
        while len(edges) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        graphs.append(make_digraph(n, [a for u, v in edges for a in ((u, v), (v, u))]))
    return graphs


def test_threshold_colourings_are_pinned():
    import hashlib
    import json

    results = []
    for g in _threshold_graphs(30, 60, 20261):
        res = chromatic_number(g)
        results.append([res.chi, res.colouring, res.lower_bound_cert])
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == "082d5f19c65e8a7f53a7e9e8c1cc36046f51c851c07ba2dc35e88f7d0e6cbd6d"


def test_threshold_chi_agrees_with_hom_engine():
    """chi is the least order of a complete graph the graph maps into, by the
    independent hom engine and a witness checked arc by arc."""
    for g in _threshold_graphs(20, 40, 20262):
        chi = chromatic_number(g).chi
        w = hom_exists(g, complete(chi))
        assert isinstance(w, Hom) and validate_hom(w, g, complete(chi))
        assert hom_exists(g, complete(chi - 1)) is None


def test_colouring_budget_counts_assignments_over_all_decisions():
    graphs = _threshold_graphs(30, 60, 20261)
    # graph 5 has a 3-clique, so only the k = 3 decision runs (75 assignments);
    # graph 0 refutes k = 3 in 39 assignments and 4-colours in 60 more
    for g, chi, least in ((graphs[5], 3, 75), (graphs[0], 4, 99)):
        full = chromatic_number(g)
        assert full.chi == chi
        assert chromatic_number(g, budget=least - 1) is BUDGET_EXCEEDED
        assert chromatic_number(g, budget=least) == full
        assert chromatic_number(g, budget=10**9) == full


def test_colouring_budget_must_be_positive():
    with pytest.raises(ValueError):
        chromatic_number(complete(3), budget=0)


def test_chromatic_number_never_sets_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"setrecursionlimit({limit}) called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = 1501
    cycle = make_digraph(n, [(i, (i + 1) % n) for i in range(n)])
    res = chromatic_number(cycle)
    assert res.chi == 3 and check_colouring(cycle, res.colouring)


def test_h3_dual_decisions_are_pinned():
    """Budgeted k-decisions on the 256-vertex duals of the h(3) family:
    multi-word masks, refutations, colourings and budget cut-offs."""
    import hashlib
    import json

    from digraphlab.coloring import _decide_colourable
    from digraphlab.paths import path_family

    results = []
    for p in path_family(9, 2):
        dual = tree_dual(p.as_digraph())
        for k in (3, 4, 5, dual.n):
            res, assigned = _decide_colourable(dual, k, 20_000)
            results.append(["budget" if res is BUDGET_EXCEEDED else res, assigned])
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == "651f6b235868f820f4ad8164ce135611ebd9b65d72377f9463f32cad334694f1"


def test_threshold_decisions_are_pinned():
    """Budgeted k = 3 and 4 decisions on 80-vertex threshold graphs, the
    size chi-sparse colours: refutations, colourings and budget cut-offs,
    each with its assignment count."""
    import hashlib
    import json

    from digraphlab.coloring import _decide_colourable

    results = []
    for g in _threshold_graphs(40, 80, 20263):
        for k in (3, 4):
            for budget in (float("inf"), 60, 150):
                res, assigned = _decide_colourable(g, k, budget)
                results.append(["budget" if res is BUDGET_EXCEEDED else res, assigned])
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == "7dd48888703e7eb6fee0b19736629c4a0085173419d81b0f077524bff3debd5b"


def _greedy_clique_without_exits(g):
    """The greedy clique grown in full from each of 24 starts: the reference
    for ``Digraph.greedy_clique``, whose early exits must not change the
    clique."""
    masks = g.neighbour_masks
    best = []
    for start in g.degree_order[:24]:
        clique = [start]
        common = masks[start]
        while common:
            most, rest = -1, common
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                d = (masks[v] & common).bit_count()
                if d > most:
                    u, most = v, d
            clique.append(u)
            common &= masks[u]
        if len(clique) > len(best):
            best = clique
    return tuple(best)


def test_greedy_clique_exits_keep_the_clique():
    # grown over rank_masks, the clique must still be the vertex-space one:
    # one-way arcs and 2-cycles, ties in degree and in candidate counts
    # (circulants tie everywhere), and more than the 24 starts
    rng = random.Random(20264)
    graphs = [random_digraph(rng, rng.randint(1, 40), rng.uniform(0.02, 0.9)) for _ in range(200)]
    graphs += [random_digraph(rng, n, rng.uniform(0.02, 0.9)) for n in range(1, 61)]
    # the best clique grows from the 24th start (seeds 496, 716) or would
    # from a 25th (seeds 136, 334)
    for seed in (136, 334, 496, 716):
        r = random.Random(seed)
        graphs.append(random_digraph(r, r.randint(25, 60), r.uniform(0.05, 0.9)))
    graphs += [tournament(n) for n in range(1, 30)]
    graphs += [circular_complete(n, k) for k in (2, 3) for n in range(2 * k + 1, 61, 3)]
    graphs += _threshold_graphs(30, 60, 20261)
    graphs += [complete(n) for n in range(1, 30)]
    graphs += [interleaved_adjoint(tournament(n), k) for k in range(1, 4) for n in range(2 * k, 9)]
    for g in graphs:
        assert g.greedy_clique == _greedy_clique_without_exits(g)


def test_colouring_caches_only_the_rank_space_tables():
    graphs = [random_digraph(random.Random(seed), 30, 0.2) for seed in range(5)]
    graphs += _threshold_graphs(5, 80, 20262)
    for g in graphs:
        chi = chromatic_number(g).chi
        assert isinstance(hom_exists(g, complete(chi)), Hom) and hom_exists(g, complete(chi - 1)) is None
        assert "rank_masks" in vars(g) and "greedy_clique" in vars(g)
        assert "neighbour_masks" not in vars(g) and "degree_rank" not in vars(g)
